(* The functional profile in one pass over the trace: the oracle the
   two-stage Profile.replay and Profile.group are tested against, field
   by field. It drives the caches, the predictor and the dTLB and
   groups the miss-events as it goes, and every instruction updates a
   dependence taint for the open long-miss group and the open dTLB
   group, so a group's split decisions are read directly off the taint
   of the instruction that would join it. *)

module Opclass = Fom_isa.Opclass
module Latency = Fom_isa.Latency
module Hierarchy = Fom_cache.Hierarchy
module Predictor = Fom_branch.Predictor
module Distribution = Fom_util.Distribution
module Packed = Fom_trace.Packed
module Profile = Fom_analysis.Profile

(* Tracks runs of events, emitting run lengths into a distribution.
   [Leader]-anchored runs admit a new event only within [window]
   instructions of the run's first event (a follower overlaps the
   leader's outstanding miss only while the leader pins the ROB);
   [Previous]-anchored runs chain on consecutive distances (the
   paper's reading). [split] forces a new run regardless. *)
type anchor = Leader | Previous

type grouper = {
  dist : Distribution.t;
  window : int;
  anchor : anchor;
  mutable leader_index : int;
  mutable last_index : int;
  mutable run : int;
}

let grouper ?(anchor = Previous) window =
  {
    dist = Distribution.create ();
    window;
    anchor;
    leader_index = min_int / 2;
    last_index = min_int / 2;
    run = 0;
  }

(* Returns [true] when the event started a new run. *)
let[@inline] grouper_add ?(split = false) g index =
  let reference = match g.anchor with Leader -> g.leader_index | Previous -> g.last_index in
  let extends = (not split) && g.run > 0 && index - reference <= g.window in
  if extends then g.run <- g.run + 1
  else begin
    if g.run > 0 then Distribution.add g.dist g.run;
    g.run <- 1;
    g.leader_index <- index
  end;
  g.last_index <- index;
  not extends

let grouper_flush g = if g.run > 0 then Distribution.add g.dist g.run

(* Transitive-dependence taint over a ring of recent instructions:
   an instruction is tainted by the open miss group when any of its
   producers is a group member or itself tainted. A tainted long miss
   cannot overlap the group — its address waits for the group's data. *)
let taint_bits = 14
let taint_size = 1 lsl taint_bits
let taint_mask = taint_size - 1

type taint = { idx : int array; group : int array }

let taint_create size = { idx = Array.make size (-1); group = Array.make size (-1) }

(* [deps.(lo) .. deps.(hi - 1)] is one instruction's slice of a
   packed trace's dependence column. A loop rather than a recursion so
   that it inlines into the per-instruction loop, as do [taint_mark]
   and [grouper_add]: no call spills that loop's live values. *)
let[@inline] tainted_by taint ~group_id deps lo hi =
  let k = ref lo in
  while
    !k < hi
    &&
    let d = deps.(!k) in
    let slot = d land taint_mask in
    not (taint.idx.(slot) = d && taint.group.(slot) = group_id)
  do
    incr k
  done;
  !k < hi

let[@inline] taint_mark taint ~group_id index =
  let slot = index land taint_mask in
  taint.idx.(slot) <- index;
  taint.group.(slot) <- group_id

let load_tag = Opclass.to_int Opclass.Load
let store_tag = Opclass.to_int Opclass.Store
let branch_tag = Opclass.to_int Opclass.Branch

let run_packed ?(cache = Hierarchy.baseline) ?(predictor = Predictor.default_spec)
    ?(burst_window = 48) ?(group_window = 128)
    ?(grouping = Profile.Dependence_aware) ?dtlb (packed : Packed.t) ~n =
  Fom_check.Checker.ensure ~code:"FOM-I030" ~path:"profile.n" (n > 0)
    "profiled instruction count must be positive";
  Fom_check.Checker.ensure ~code:"FOM-I030" ~path:"profile.n" (n <= Packed.length packed)
    "profiled instruction count exceeds the packed trace";
  let hierarchy = Hierarchy.create cache in
  let pred = Predictor.create predictor in
  let counts = Array.make Opclass.count 0 in
  let latency_of = Latency.table Latency.default in
  let l2_latency = Hierarchy.data_latency hierarchy Hierarchy.L2_hit in
  let latency_sum = ref 0 in
  let branches = ref 0 in
  let mispredictions = ref 0 in
  let bursts = grouper burst_window in
  let groups =
    match grouping with
    | Profile.Dependence_aware -> grouper ~anchor:Leader group_window
    | Profile.Paper_naive -> grouper ~anchor:Previous group_window
  in
  let aware = grouping = Profile.Dependence_aware in
  let taint = taint_create taint_size in
  let group_id = ref 0 in
  let tlb = Option.map Fom_cache.Tlb.create dtlb in
  let dtlb_misses = ref 0 in
  let tlb_groups = grouper ~anchor:Leader group_window in
  (* TLB misses get their own dependence taint: a walk whose address
     depends on an in-group walk serializes, exactly like long data
     misses. Only dependence-aware grouping with a dTLB reads it. *)
  let tlb_aware = aware && Option.is_some tlb in
  let tlb_taint = taint_create (if tlb_aware then taint_size else 0) in
  let tlb_group_id = ref 0 in
  let short_misses = ref 0 in
  let long_misses = ref 0 in
  let l2_fetches = ref 0 and memory_fetches = ref 0 in
  let last_line = ref (-1) in
  let line_mask = Hierarchy.inst_line_mask cache in
  let { Packed.op; pc; dep_off; dep_val; ea; _ } = packed in
  for i = 0 to n - 1 do
    let cls = op.(i) in
    counts.(cls) <- counts.(cls) + 1;
    let line = pc.(i) land line_mask in
    if line <> !last_line then begin
      last_line := line;
      match Hierarchy.access_inst hierarchy pc.(i) with
      | Hierarchy.L1_hit -> ()
      | Hierarchy.L2_hit -> incr l2_fetches
      | Hierarchy.Memory -> incr memory_fetches
    end;
    let lo = dep_off.(i) and hi = dep_off.(i + 1) in
    let is_tainted = aware && tainted_by taint ~group_id:!group_id dep_val lo hi in
    let base_latency = latency_of.(cls) in
    let marked_as_miss = ref false in
    let tlb_tainted = tlb_aware && tainted_by tlb_taint ~group_id:!tlb_group_id dep_val lo hi in
    let tlb_marked = ref false in
    if cls = load_tag then begin
      let addr = ea.(i) in
      (match tlb with
      | Some tlb when not (Fom_cache.Tlb.access tlb addr) ->
          incr dtlb_misses;
          if grouper_add ~split:tlb_tainted tlb_groups i then incr tlb_group_id;
          if aware then begin
            taint_mark tlb_taint ~group_id:!tlb_group_id i;
            tlb_marked := true
          end
      | Some _ | None -> ());
      match Hierarchy.access_data hierarchy addr with
      | Hierarchy.L1_hit -> latency_sum := !latency_sum + base_latency
      | Hierarchy.L2_hit ->
          incr short_misses;
          (* Short misses behave like a long-latency functional
             unit: they lengthen the mean latency (paper 4.3). *)
          latency_sum := !latency_sum + l2_latency
      | Hierarchy.Memory ->
          incr long_misses;
          (* A miss that depends on the open group serializes after
             it and starts a new group. *)
          if grouper_add ~split:is_tainted groups i then incr group_id;
          if aware then begin
            taint_mark taint ~group_id:!group_id i;
            marked_as_miss := true
          end;
          (* Long misses are modeled separately; they contribute
             their base latency here. *)
          latency_sum := !latency_sum + base_latency
    end
    else begin
      if cls = store_tag then begin
        (* Store misses fill the TLB but are not miss-events. *)
        (match tlb with Some tlb -> ignore (Fom_cache.Tlb.access tlb ea.(i)) | None -> ());
        ignore (Hierarchy.access_data hierarchy ea.(i))
      end
      else if cls = branch_tag then begin
        incr branches;
        let taken = ea.(i) land 1 = 1 in
        if not (Predictor.observe pred ~pc:pc.(i) ~taken) then begin
          incr mispredictions;
          ignore (grouper_add bursts i)
        end
      end;
      latency_sum := !latency_sum + base_latency
    end;
    if is_tainted && not !marked_as_miss then taint_mark taint ~group_id:!group_id i;
    if tlb_tainted && not !tlb_marked then taint_mark tlb_taint ~group_id:!tlb_group_id i
  done;
  grouper_flush bursts;
  grouper_flush groups;
  grouper_flush tlb_groups;
  {
    Profile.instructions = n;
    class_counts = List.mapi (fun k cls -> (cls, counts.(k))) Opclass.all;
    avg_latency = float_of_int !latency_sum /. float_of_int n;
    branches = !branches;
    mispredictions = !mispredictions;
    mispred_bursts = bursts.dist;
    l1i_misses = !l2_fetches;
    l2i_misses = !memory_fetches;
    short_misses = !short_misses;
    long_misses = !long_misses;
    long_miss_groups = groups.dist;
    dtlb_misses = !dtlb_misses;
    dtlb_groups = tlb_groups.dist;
  }
