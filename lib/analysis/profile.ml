module Opclass = Fom_isa.Opclass
module Latency = Fom_isa.Latency
module Hierarchy = Fom_cache.Hierarchy
module Predictor = Fom_branch.Predictor
module Distribution = Fom_util.Distribution
module Packed = Fom_trace.Packed

type t = {
  instructions : int;
  class_counts : (Opclass.t * int) list;
  avg_latency : float;
  branches : int;
  mispredictions : int;
  mispred_bursts : Distribution.t;
  l1i_misses : int;
  l2i_misses : int;
  short_misses : int;
  long_misses : int;
  long_miss_groups : Distribution.t;
  dtlb_misses : int;
  dtlb_groups : Distribution.t;
}

type grouping = Dependence_aware | Paper_naive

(* Ascending instruction indices of one kind of miss-event: the first
   [len] entries of [data]. The first push allocates 1024 entries, past
   the minor heap's largest block: a replay is kept as long as its
   packing, so its arrays would be promoted anyway. *)
type events = { mutable data : int array; mutable len : int }

let events () = { data = [||]; len = 0 }

let[@inline] push e index =
  if e.len = Array.length e.data then begin
    let bigger = Array.make (Int.max 1024 (2 * e.len)) 0 in
    Array.blit e.data 0 bigger 0 e.len;
    e.data <- bigger
  end;
  e.data.(e.len) <- index;
  e.len <- e.len + 1

type replay = {
  length : int;
  counts : int array;  (* per opclass tag *)
  branches : int;
  mispredicted : events;
  l1i_misses : int;
  l2i_misses : int;
  short_misses : int;
  long_loads : events;  (* loads served by memory *)
  dtlb_loads : events;  (* loads that missed the dTLB *)
  l2_latency : int;
}
let load_tag = Opclass.to_int Opclass.Load
let store_tag = Opclass.to_int Opclass.Store
let branch_tag = Opclass.to_int Opclass.Branch

(* Observability (a no-op unless an Fom_obs sink is enabled). *)
let s_replay = Fom_obs.Span.id "analysis.profile"

let replay ?(cache = Hierarchy.baseline) ?(predictor = Predictor.default_spec) ?dtlb
    (packed : Packed.t) ~n =
  Fom_check.Checker.ensure ~code:"FOM-I030" ~path:"profile.n" (n > 0)
    "profiled instruction count must be positive";
  Fom_check.Checker.ensure ~code:"FOM-I030" ~path:"profile.n" (n <= Packed.length packed)
    "profiled instruction count exceeds the packed trace";
  Fom_obs.Span.with_ s_replay (fun () ->
      let hierarchy = Hierarchy.create cache in
      let pred = Predictor.create predictor in
      let tlb = Option.map Fom_cache.Tlb.create dtlb in
      let counts = Array.make Opclass.count 0 in
      let branches = ref 0 in
      let short_misses = ref 0 and l2_fetches = ref 0 and memory_fetches = ref 0 in
      let mispredicted = events () and long_loads = events () and dtlb_loads = events () in
      let last_line = ref (-1) in
      let line_mask = Hierarchy.inst_line_mask cache in
      let { Packed.op; pc; ea; _ } = packed in
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
        if cls = load_tag then begin
          let addr = ea.(i) in
          (match tlb with
          | Some tlb when not (Fom_cache.Tlb.access tlb addr) -> push dtlb_loads i
          | Some _ | None -> ());
          match Hierarchy.access_data hierarchy addr with
          | Hierarchy.L1_hit -> ()
          | Hierarchy.L2_hit -> incr short_misses
          | Hierarchy.Memory -> push long_loads i
        end
        else if cls = store_tag then begin
          (* Store misses fill the TLB but are not miss-events. *)
          (match tlb with Some tlb -> ignore (Fom_cache.Tlb.access tlb ea.(i)) | None -> ());
          ignore (Hierarchy.access_data hierarchy ea.(i))
        end
        else if cls = branch_tag then begin
          incr branches;
          let taken = ea.(i) land 1 = 1 in
          if not (Predictor.observe pred ~pc:pc.(i) ~taken) then push mispredicted i
        end
      done;
      {
        length = n;
        counts;
        branches = !branches;
        mispredicted;
        l1i_misses = !l2_fetches;
        l2i_misses = !memory_fetches;
        short_misses = !short_misses;
        long_loads;
        dtlb_loads;
        l2_latency = Hierarchy.data_latency hierarchy Hierarchy.L2_hit;
      })

(* Runs of ascending event indices in which each event lies within
   [window] instructions of the previous one: misprediction bursts and
   the paper's long-miss groups. *)
let chained_runs ~window { data = events; len = count } =
  let dist = Distribution.create () in
  if count > 0 then begin
    let run = ref 1 in
    for k = 1 to count - 1 do
      if events.(k) - events.(k - 1) <= window then incr run
      else begin
        Distribution.add dist !run;
        run := 1
      end
    done;
    Distribution.add dist !run
  end;
  dist

(* The taint ring holds the next power of two above the window, at
   most 2^14 entries. A window below that never wraps it; a wider one
   wraps it as the one-pass profile's fixed 2^14-entry ring did
   (test/profile_oracle.ml), so the groups match it for every ROB. *)
let taint_bits = 14

let ring_size window =
  let rec grow size = if size > window || size >= 1 lsl taint_bits then size else grow (2 * size) in
  grow 1

(* Whether instruction [i] depends on an entry of [marked] at or above
   [leader]. A loop, so that it inlines into the scan. *)
let[@inline] tainted marked dep_off dep_val ~leader i =
  let mask = Array.length marked - 1 in
  let hi = dep_off.(i + 1) in
  let k = ref dep_off.(i) in
  while
    !k < hi
    &&
    let d = dep_val.(!k) in
    not (d >= leader && marked.(d land mask) = d)
  do
    incr k
  done;
  !k < hi

(* Leader-anchored groups of ascending event indices: an event joins
   the open group when it lies within [window] instructions of the
   group's first event, its leader (it can enter the ROB while the
   leader's miss is outstanding). With [taint], an event that depends
   transitively on a group member cannot overlap the group, since its
   address waits for the group's data: it leads a new group instead.

   Only an event within [window] of a leader can split its group, so
   the dependences are scanned only from each leader up to its group's
   last candidate event. The ring [marked] holds each scanned
   instruction that is a member or depends on one, by its index; an
   entry at or above the current leader was written by the current
   scan, so the check needs no group tag. *)
let leader_groups ~taint (packed : Packed.t) ~window { data = events; len = count } =
  let dist = Distribution.create () in
  (* One event forms one group: no ring to fill. *)
  let taint = taint && count > 1 in
  let marked = Array.make (if taint then ring_size window else 0) (-1) in
  let mask = Array.length marked - 1 in
  let { Packed.dep_off; dep_val; _ } = packed in
  let k = ref 0 in
  while !k < count do
    let leader = events.(!k) in
    let run = ref 1 in
    incr k;
    if taint then begin
      marked.(leader land mask) <- leader;
      let scanned = ref (leader + 1) in
      let split = ref false in
      while (not !split) && !k < count && events.(!k) - leader <= window do
        let event = events.(!k) in
        for i = !scanned to event - 1 do
          if tainted marked dep_off dep_val ~leader i then marked.(i land mask) <- i
        done;
        if tainted marked dep_off dep_val ~leader event then split := true
        else begin
          marked.(event land mask) <- event;
          incr run;
          incr k;
          scanned := event + 1
        end
      done
    end
    else
      while !k < count && events.(!k) - leader <= window do
        incr run;
        incr k
      done;
    Distribution.add dist !run
  done;
  dist

let group ?(grouping = Dependence_aware) ~burst_window ~group_window (packed : Packed.t) r =
  Fom_check.Checker.ensure ~code:"FOM-I030" ~path:"profile.n" (r.length <= Packed.length packed)
    "the replay covers more instructions than the packed trace";
  let latency_of = Latency.table Latency.default in
  (* Every instruction contributes its class latency, except that a
     short miss lengthens its load to the L2 latency: short misses
     behave like a long-latency functional unit (paper 4.3). Long
     misses are modeled separately and keep their base latency. *)
  let latency_sum = ref (r.short_misses * (r.l2_latency - latency_of.(load_tag))) in
  Array.iteri (fun cls count -> latency_sum := !latency_sum + (count * latency_of.(cls))) r.counts;
  let aware = grouping = Dependence_aware in
  let long_miss_groups =
    if aware then leader_groups ~taint:true packed ~window:group_window r.long_loads
    else chained_runs ~window:group_window r.long_loads
  in
  {
    instructions = r.length;
    class_counts = List.mapi (fun k cls -> (cls, r.counts.(k))) Opclass.all;
    avg_latency = float_of_int !latency_sum /. float_of_int r.length;
    branches = r.branches;
    mispredictions = r.mispredicted.len;
    mispred_bursts = chained_runs ~window:burst_window r.mispredicted;
    l1i_misses = r.l1i_misses;
    l2i_misses = r.l2i_misses;
    short_misses = r.short_misses;
    long_misses = r.long_loads.len;
    long_miss_groups;
    dtlb_misses = r.dtlb_loads.len;
    (* A walk whose address depends on an in-group walk serializes,
       exactly like a long data miss. *)
    dtlb_groups = leader_groups ~taint:aware packed ~window:group_window r.dtlb_loads;
  }

let class_fraction t cls =
  let count = List.assoc cls t.class_counts in
  float_of_int count /. float_of_int t.instructions

let per_instr t count = float_of_int count /. float_of_int t.instructions

let run program ~n =
  let packed = Packed.at_least (Fom_trace.Source.of_program program) ~n in
  let params = Fom_model.Params.baseline in
  group ~burst_window:params.Fom_model.Params.window_size
    ~group_window:params.Fom_model.Params.rob_size packed (replay packed ~n)
