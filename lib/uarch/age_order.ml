module Opclass = Fom_isa.Opclass
module Hierarchy = Fom_cache.Hierarchy
module Predictor = Fom_branch.Predictor
module Packed = Fom_trace.Packed

exception Cycle_limit_exceeded

let branch_tag = Opclass.to_int Opclass.Branch
let load_tag = Opclass.to_int Opclass.Load

(* The event kernel's machine as a recurrence over instructions in
   program order, for configurations whose timing cannot depend on
   issue order: an ideal L1D (every load takes its hit latency) and no
   dTLB. Then nothing an instruction does at issue feeds back into a
   latency, and each of its stage cycles follows from older
   instructions alone:

   - fetch is attempted at [a], the first cycle at or after the older
     instruction's fetch with fetch slots left ([F(i - limit) + 1]),
     pipe space ([D(i - pipe_capacity)], dispatch running before fetch
     in a cycle), and, after a mispredicted branch, its completion. On a
     change of I-cache line the probe happens at [a]; a miss moves the
     fetch [max 1 stall] cycles later.
   - dispatch is the first cycle at or after [F + depth], the older
     dispatch, [D(i - width) + 1], [R(i - rob)] (retire running before
     dispatch) and the window floor: the cycle by which
     [i - window + 1] older instructions have issued. [i] goes to the
     next cluster in turn with window room then (a full one passes its
     turn; the floor leaves room in one).
   - issue is the first cycle at or after [D + 1] and every producer's
     value, with fewer than [width / clusters] older issues from its
     cluster and, for a class with limited units, fewer older issues
     of its class than units. A value produced in another cluster
     arrives a bypass cycle after its completion, or when its producer
     retires if that is sooner: [min(R(p), C(p) + 1)]. Younger
     instructions never take an older one's slot or unit, so the
     counts it sees are final (the IW kernel's argument,
     {!Fom_analysis.Iw_sim}).
   - completion is issue plus the class latency, and retirement the
     first cycle at or after completion, the older retirement and
     [R(i - width) + 1].

   A run computes instructions in one pass in program order. Until
   its target [T] is computed, nothing bounds the pass; [T]'s
   retirement [R] then sets the end of the run, [X = min R limit + 1],
   and the pass keeps going while fetch would be attempted before [X]:
   the event kernel's last cycle still dispatches and fetches behind
   the target, so those instructions touch the predictor and I-cache,
   count toward the statistics and fill the record. Each instruction
   is accounted as it is computed, with its events before [X] only;
   every event of an instruction at or before [T] falls by [R], so one
   computed before [X] is known loses none.

   Stage cycles live in rings indexed by [index land mask], sized by
   {!Config.comp_ring_size}. The recurrences read back at most
   [max(rob, pipe_capacity, 2 width)] instructions. Fetch reaches
   instruction [j] only once [j - pipe_capacity] has dispatched, which
   needs [j - pipe_capacity - rob] retired, so a run computes at most
   [rob + pipe_capacity + width - 1] instructions past its target (the
   last cycle retires up to [width - 1] past it). Both are below
   {!Config.inflight_span}, so no live slot is overwritten; {!run}
   checks the second.

   Issue counts per cycle live in rings, as in the IW kernel. Ring 0
   counts every issue: cycles at or below [base] are folded into
   [below] (issues so far at or before [base]), and [base] moves up to
   each dispatch cycle; every later issue lands above it. One cluster's
   budget is ring 0. More clusters have a ring each (cluster [k]'s is
   ring [k + 1]) and count their [pending] issues above [base], their
   window entries at a steering; each class with limited units has a
   ring. [base] clears every ring it passes. The oldest instruction
   still waiting is first for its cluster's slots and its class's
   units, so it issues at most [slowest latency + bypass] cycles after
   an older issue (latencies are at least 1, which covers a cycle's
   wait on a slot or a unit; the bypass is 1 with clusters). An issue
   time thus stays within [window] such steps of the dispatch above
   which it lands; the rings hold the next power of two past that, and
   the kernel checks the bound on every issue. Nothing is allocated
   per instruction or per cycle. *)
type t = {
  (* the packed trace's columns, by dynamic index (see {!Packed}) *)
  len : int;
  op : int array;
  pc : int array;
  ea : int array;
  dep_off : int array;
  dep_val : int array;
  (* machine shape *)
  width : int;
  depth : int;
  window : int;
  rob : int;
  pipe_capacity : int;
  fetch_limit : int;
  clusters : int;
  latency : int array;  (* by class tag; a load's is its L1 hit's *)
  unit_limit : int array;  (* units by class tag; max_int when unbounded *)
  (* front end; an ideal L1I or predictor is never consulted: it never
     misses, and it is never wrong *)
  hierarchy : Hierarchy.t;
  predictor : Predictor.t;
  l1i_ideal : bool;
  predictor_ideal : bool;
  l1i_line_mask : int;
  mutable last_line : int;
  (* stage cycles by slot *)
  mask : int;
  fetch_at : int array;
  dispatch_at : int array;
  complete_at : int array;
  retire_at : int array;
  cluster_at : int array;  (* by slot, with more than one cluster *)
  (* issue counts per cycle above [base]: ring [k] covers slots
     [k lsl issued_bits ..]; ring 0, then clusters' rings, then limited
     classes' *)
  issued : int array;
  issued_bits : int;
  issued_mask : int;
  unit_ring : int array;  (* by class tag: its ring's first slot; -1 when unbounded *)
  pending : int array;  (* by cluster, with more than one: its issues above [base] *)
  (* statistics *)
  mutable mispredictions : int;
  mutable l2_fetches : int;  (* instruction fetches served by the L2 *)
  mutable memory_fetches : int;  (* instruction fetches served by memory *)
  window_at_branch_issue : Fom_util.Stats.Acc.t;
  mutable occupancy_window_sum : int;
  mutable occupancy_rob_sum : int;
}

let create (config : Config.t) packed =
  let ring = Config.comp_ring_size config in
  let hierarchy = Hierarchy.create config.Config.cache in
  let latency = Fom_isa.Latency.table config.Config.latencies in
  latency.(load_tag) <-
    Int.max latency.(load_tag) (Hierarchy.data_latency hierarchy Hierarchy.L1_hit);
  let width = config.Config.width and clusters = config.Config.clusters in
  let span =
    let bypass = if clusters > 1 then 1 else 0 in
    (config.Config.window_size * (Array.fold_left Int.max 1 latency + bypass)) + 2
  in
  let issued_bits = ref 3 in
  while 1 lsl !issued_bits < span do
    incr issued_bits
  done;
  let issued_bits = !issued_bits in
  (* One cluster's budget is ring 0's: every issue is its own. *)
  let pending = if clusters = 1 then [||] else Array.make clusters 0 in
  let unit_limit = Array.make Opclass.count max_int in
  let unit_ring = Array.make Opclass.count (-1) in
  let rings = ref (1 + Array.length pending) in
  for tag = 0 to Opclass.count - 1 do
    let limit = Fom_isa.Fu_set.of_class config.Config.fu_limits (Opclass.of_int tag) in
    if limit < max_int then begin
      unit_limit.(tag) <- limit;
      unit_ring.(tag) <- !rings lsl issued_bits;
      incr rings
    end
  done;
  {
    len = packed.Packed.len;
    op = packed.Packed.op;
    pc = packed.Packed.pc;
    ea = packed.Packed.ea;
    dep_off = packed.Packed.dep_off;
    dep_val = packed.Packed.dep_val;
    width;
    depth = config.Config.pipeline_depth;
    window = config.Config.window_size;
    rob = config.Config.rob_size;
    pipe_capacity = (width * config.Config.pipeline_depth) + config.Config.fetch_buffer;
    fetch_limit = (if config.Config.fetch_buffer > 0 then 2 * width else width);
    clusters;
    latency;
    unit_limit;
    hierarchy;
    predictor = Predictor.create config.Config.predictor;
    l1i_ideal =
      (match config.Config.cache.Hierarchy.l1i with
      | Hierarchy.Ideal -> true
      | Hierarchy.Real _ -> false);
    predictor_ideal =
      (match config.Config.predictor with Predictor.Ideal -> true | _ -> false);
    l1i_line_mask = Hierarchy.inst_line_mask config.Config.cache;
    last_line = -1;
    mask = ring - 1;
    (* -1 before the first instruction bounds nothing: the first fetch
       is at cycle 0. *)
    fetch_at = Array.make ring (-1);
    dispatch_at = Array.make ring (-1);
    complete_at = Array.make ring (-1);
    retire_at = Array.make ring (-1);
    cluster_at = Array.make (if clusters > 1 then ring else 0) 0;
    issued = Array.make (!rings lsl issued_bits) 0;
    issued_bits;
    issued_mask = (1 lsl issued_bits) - 1;
    unit_ring;
    pending;
    mispredictions = 0;
    l2_fetches = 0;
    memory_fetches = 0;
    window_at_branch_issue = Fom_util.Stats.Acc.create ();
    occupancy_window_sum = 0;
    occupancy_rob_sum = 0;
  }

(* Fetch reached row [i] at cycle [a]: past the packing, that is the
   event kernel's FOM-T132, unless its cycle limit fires first. *)
let[@inline] check_row t i a ~limit =
  if i >= t.len then begin
    if a > limit then raise Cycle_limit_exceeded;
    Fom_check.Checker.run_exn
      (Fom_check.Checker.fail ~code:"FOM-T132" ~path:"machine.trace"
         "packed trace exhausted before the run retired its target")
  end

(* The one pass. The previous instruction's fetch, dispatch and
   retirement cycles, the cycle fetch may resume after it (its
   completion if it is a mispredicted branch, else -1), the window
   floor, the steering turn and the end of the run are carried in
   locals. *)
let run config packed ~n ~limit ~record =
  let t = create config packed in
  let target = n - 1 in
  let mask = t.mask and imask = t.issued_mask and bits = t.issued_bits in
  let width = t.width and window = t.window and rob = t.rob in
  let clusters = t.clusters in
  let cluster_width = width / clusters and cluster_window = window / clusters in
  let fetch_at = t.fetch_at and dispatch_at = t.dispatch_at in
  let complete_at = t.complete_at and retire_at = t.retire_at in
  let cluster_at = t.cluster_at and pending = t.pending in
  let issued = t.issued and dep_off = t.dep_off and dep_val = t.dep_val in
  (* One cluster with unbounded units has ring 0 alone: no steering,
     bypass, cluster ring or unit to look at. *)
  let clustered = clusters > 1 and rings = Array.length issued lsr bits in
  let f_prev = ref (-1) and d_prev = ref (-1) and r_prev = ref (-1) and resume = ref (-1) in
  let base = ref (-1) and below = ref 0 and turn = ref 0 in
  (* [until] is [X], unbounded until the target is computed; [finish]
     is [R]. *)
  let until = ref max_int and finish = ref max_int and retired = ref 0 in
  let next = ref 0 and go = ref true in
  while !go do
    let i = !next in
    (* Fetch: the attempt, from older instructions only, so it can be
       asked before deciding to compute [i]. *)
    let a = Int.max !f_prev (fetch_at.((i - t.fetch_limit) land mask) + 1) in
    let a = Int.max (Int.max a dispatch_at.((i - t.pipe_capacity) land mask)) !resume in
    if a >= !until then go := false
    else begin
      check_row t i a ~limit;
      let s = i land mask in
      let pc = t.pc.(i) in
      let line = pc land t.l1i_line_mask in
      let f =
        if t.l1i_ideal || line = t.last_line then a
        else begin
          t.last_line <- line;
          match Hierarchy.access_inst t.hierarchy pc with
          | Hierarchy.L1_hit -> a
          | (Hierarchy.L2_hit | Hierarchy.Memory) as outcome ->
              if outcome = Hierarchy.L2_hit then t.l2_fetches <- t.l2_fetches + 1
              else t.memory_fetches <- t.memory_fetches + 1;
              a + Int.max 1 (Hierarchy.inst_stall t.hierarchy outcome)
        end
      in
      fetch_at.(s) <- f;
      f_prev := f;
      let op = t.op.(i) in
      let mispredicted =
        op = branch_tag && (not t.predictor_ideal)
        && not (Predictor.observe t.predictor ~pc ~taken:(t.ea.(i) land 1 = 1))
      in
      (* Dispatch: fold the issue counts up to the other bounds, then on
         until the window admits [i]. *)
      let d = Int.max (f + t.depth) !d_prev in
      let d = Int.max d (dispatch_at.((i - width) land mask) + 1) in
      let d = Int.max d retire_at.((i - rob) land mask) in
      let admitted = i - window + 1 in
      while !base < d || !below < admitted do
        incr base;
        let c = !base land imask in
        below := !below + issued.(c);
        issued.(c) <- 0;
        if rings > 1 then begin
          for k = 0 to Array.length pending - 1 do
            let slot = ((k + 1) lsl bits) lor c in
            pending.(k) <- pending.(k) - issued.(slot);
            issued.(slot) <- 0
          done;
          for k = 1 + Array.length pending to rings - 1 do
            issued.((k lsl bits) lor c) <- 0
          done
        end
      done;
      let d = !base in
      dispatch_at.(s) <- d;
      d_prev := d;
      (* Steering. While the window holds fewer than a cluster's share,
         no cluster is full. *)
      let cl =
        if clustered then begin
          let cl = ref !turn in
          if i - !below >= cluster_window then
            while pending.(!cl) >= cluster_window do
              cl := if !cl + 1 = clusters then 0 else !cl + 1
            done;
          let cl = !cl in
          turn := if cl + 1 = clusters then 0 else cl + 1;
          cluster_at.(s) <- cl;
          cl
        end
        else 0
      in
      (* Issue. A producer [rob] or more instructions older retired by
         this dispatch, so its value is ready. *)
      let e = ref (d + 1) in
      let oldest = i - rob in
      for k = dep_off.(i) to dep_off.(i + 1) - 1 do
        let p = dep_val.(k) in
        if p > oldest then begin
          let ps = p land mask in
          let c =
            if clustered && cluster_at.(ps) <> cl then
              Int.min (complete_at.(ps) + 1) retire_at.(ps)
            else complete_at.(ps)
          in
          if c > !e then e := c
        end
      done;
      let own = if clustered then (cl + 1) lsl bits else 0 in
      let u = ref !e in
      while issued.(own lor (!u land imask)) >= cluster_width do
        incr u
      done;
      (* A class with limited units also waits for a free one. *)
      let unit = if rings > 1 then t.unit_ring.(op) else -1 in
      if unit >= 0 then begin
        let units = t.unit_limit.(op) in
        while
          issued.(unit lor (!u land imask)) >= units
          || issued.(own lor (!u land imask)) >= cluster_width
        do
          incr u
        done;
        issued.(unit lor (!u land imask)) <- issued.(unit lor (!u land imask)) + 1
      end;
      let u = !u in
      if u > d + imask then Fom_check.Checker.internal_error "age-order issue ring overflow";
      (* A mispredicted branch is the one fetch waits on, so nothing
         younger has dispatched when it issues: the window then holds
         the older instructions that issue after it. *)
      let sample =
        if mispredicted then begin
          let by_u = ref !below in
          for c = d + 1 to u do
            by_u := !by_u + issued.(c land imask)
          done;
          i - !by_u
        end
        else -1
      in
      issued.(u land imask) <- issued.(u land imask) + 1;
      if clustered then begin
        issued.(own lor (u land imask)) <- issued.(own lor (u land imask)) + 1;
        pending.(cl) <- pending.(cl) + 1
      end;
      (* Completion and retirement. *)
      let c = u + t.latency.(op) in
      complete_at.(s) <- c;
      resume := if mispredicted then c else -1;
      let r = Int.max (Int.max c !r_prev) (retire_at.((i - width) land mask) + 1) in
      retire_at.(s) <- r;
      r_prev := r;
      (* The end of the run: the target's retirement, or the cycle limit
         if that comes first (rows fetched by then may still run past the
         packing, which {!check_row} reports before the limit raises). *)
      if i = target then begin
        finish := r;
        until := Int.min r limit + 1
      end;
      (* Account [i]'s events before the end of the run: every one of
         them when it retires before. *)
      let until = !until in
      if r < until then begin
        t.occupancy_window_sum <- t.occupancy_window_sum + (u - d);
        t.occupancy_rob_sum <- t.occupancy_rob_sum + (r - d);
        incr retired
      end
      else begin
        t.occupancy_window_sum <- t.occupancy_window_sum + Int.max 0 (Int.min u until - d);
        t.occupancy_rob_sum <- t.occupancy_rob_sum + Int.max 0 (until - d)
      end;
      if mispredicted then begin
        if f < until then t.mispredictions <- t.mispredictions + 1;
        if u < until then Fom_util.Stats.Acc.add t.window_at_branch_issue (float_of_int sample)
      end;
      (match record with
      | None -> ()
      | Some (rc : Stats.record) ->
          if f > a then rc.icache_stall.(i) <- f - a;
          if f < until then begin
            rc.fetch.(i) <- f;
            if mispredicted then rc.mispredicted.(i) <- true
          end;
          if d < until then begin
            rc.dispatch.(i) <- d;
            rc.cluster.(i) <- cl
          end;
          if u < until then begin
            rc.issue.(i) <- u;
            rc.complete.(i) <- c
          end;
          if r < until then rc.retire.(i) <- r);
      next := i + 1
    end
  done;
  if !finish > limit then raise Cycle_limit_exceeded;
  if !next - 1 - target > mask then
    Fom_check.Checker.internal_error "age-order stage ring overflow";
  let cycles = !until in
  {
    Stats.instructions = !retired;
    cycles;
    branch_mispredictions = t.mispredictions;
    l1i_misses = t.l2_fetches;
    l2i_misses = t.memory_fetches;
    (* An ideal L1D and no dTLB: no data-side miss, none outstanding. *)
    short_data_misses = 0;
    long_data_misses = 0;
    dtlb_misses = 0;
    mispredictions_under_long_miss = 0;
    imisses_under_long_miss = 0;
    window_at_branch_issue = Fom_util.Stats.Acc.mean t.window_at_branch_issue;
    rob_ahead_of_long_miss = 0.0;
    mean_window_occupancy = float_of_int t.occupancy_window_sum /. float_of_int cycles;
    mean_rob_occupancy = float_of_int t.occupancy_rob_sum /. float_of_int cycles;
  }
