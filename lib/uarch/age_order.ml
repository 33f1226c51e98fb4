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

   A run computes instructions until its target [T] retires at [R],
   then keeps going while fetch would be attempted before [X = R + 1]:
   the event kernel's last cycle still dispatches and fetches behind
   the target, so those instructions touch the predictor and I-cache,
   count toward the statistics and fill the record. Such a run-ahead
   instruction is accounted with its events before [X] only.

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
   budget is ring 0. More clusters have a ring each and count their
   [pending] issues above [base], their window entries at a steering;
   each class with limited units has a ring. [base] clears every ring
   it passes. The oldest instruction still waiting is first for its
   cluster's slots and its class's units, so it issues at most
   [slowest latency + bypass] cycles after an older issue (latencies
   are at least 1, which covers a cycle's wait on a slot or a unit;
   the bypass is 1 with clusters). An issue time thus stays within
   [window] such steps of the dispatch above which it lands; the rings
   hold the next power of two past that, and the kernel checks the
   bound on every issue. Nothing is allocated per instruction or per
   cycle. *)
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
  issue_at : int array;
  complete_at : int array;
  retire_at : int array;
  stall_at : int array;  (* cycles from the I-cache probe to the fetch; 0 for none *)
  clustered : bool;  (* more than one cluster: steering and bypass *)
  cluster_at : int array;  (* by slot, when clustered *)
  branch_window : int array;
      (* a mispredicted branch's window_at_branch_issue sample; -1 for
         every other instruction *)
  (* issue counts per cycle above [base]: ring [k] covers slots
     [k lsl issued_bits ..]; ring 0, then clusters' rings, then limited
     classes' *)
  issued : int array;
  issued_bits : int;
  issued_mask : int;
  cluster_ring : int array;  (* by cluster: its budget ring's first slot *)
  unit_ring : int array;  (* by class tag: its ring's first slot; -1 when unbounded *)
  mutable base : int;
  mutable below : int;
  pending : int array;  (* by cluster, with more than one: its issues above [base] *)
  mutable next_cluster : int;  (* round-robin steering *)
  (* progress *)
  mutable last_computed : int;
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
  let issued_bits =
    let bypass = if clusters > 1 then 1 else 0 in
    let span = (config.Config.window_size * (Array.fold_left Int.max 1 latency + bypass)) + 2 in
    let rec grow b = if 1 lsl b >= span then b else grow (b + 1) in
    grow 3
  in
  (* One cluster's budget is ring 0's: every issue is its own. *)
  let pending = if clusters = 1 then [||] else Array.make clusters 0 in
  let cluster_ring =
    if clusters = 1 then [| 0 |] else Array.init clusters (fun k -> (k + 1) lsl issued_bits)
  in
  let unit_ring = Array.make Opclass.count (-1) and rings = ref (1 + Array.length pending) in
  let unit_limit =
    Array.init Opclass.count (fun tag ->
        let limit = Fom_isa.Fu_set.of_class config.Config.fu_limits (Opclass.of_int tag) in
        if limit < max_int then begin
          unit_ring.(tag) <- !rings lsl issued_bits;
          incr rings
        end;
        limit)
  in
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
    issue_at = Array.make ring (-1);
    complete_at = Array.make ring (-1);
    retire_at = Array.make ring (-1);
    stall_at = Array.make ring 0;
    clustered = clusters > 1;
    cluster_at = Array.make (if clusters > 1 then ring else 0) 0;
    branch_window = Array.make ring (-1);
    issued = Array.make (!rings lsl issued_bits) 0;
    issued_bits;
    issued_mask = (1 lsl issued_bits) - 1;
    cluster_ring;
    unit_ring;
    base = -1;
    below = 0;
    pending;
    next_cluster = 0;
    last_computed = -1;
    mispredictions = 0;
    l2_fetches = 0;
    memory_fetches = 0;
    window_at_branch_issue = Fom_util.Stats.Acc.create ();
    occupancy_window_sum = 0;
    occupancy_rob_sum = 0;
  }

(* Write instruction [i]'s events before cycle [until] into the
   record. *)
let record_events t (rc : Stats.record) i ~until =
  let s = i land t.mask in
  let f = t.fetch_at.(s) and d = t.dispatch_at.(s) in
  let u = t.issue_at.(s) and r = t.retire_at.(s) in
  let stall = t.stall_at.(s) in
  if stall > 0 && f - stall < until then rc.icache_stall.(i) <- stall;
  if f < until then begin
    rc.fetch.(i) <- f;
    if t.branch_window.(s) >= 0 then rc.mispredicted.(i) <- true
  end;
  if d < until then begin
    rc.dispatch.(i) <- d;
    rc.cluster.(i) <- (if t.clustered then t.cluster_at.(s) else 0)
  end;
  if u < until then begin
    rc.issue.(i) <- u;
    rc.complete.(i) <- t.complete_at.(s)
  end;
  if r < until then rc.retire.(i) <- r

(* Account instruction [i]'s events before cycle [until]: the occupancy
   sums, its misprediction and window sample, and the record. *)
let settle t record i ~until =
  let s = i land t.mask in
  let f = t.fetch_at.(s) and d = t.dispatch_at.(s) in
  let u = t.issue_at.(s) and r = t.retire_at.(s) in
  t.occupancy_window_sum <- t.occupancy_window_sum + Int.max 0 (Int.min u until - d);
  t.occupancy_rob_sum <- t.occupancy_rob_sum + Int.max 0 (Int.min r until - d);
  let sample = t.branch_window.(s) in
  if sample >= 0 then begin
    if f < until then t.mispredictions <- t.mispredictions + 1;
    if u < until then Fom_util.Stats.Acc.add t.window_at_branch_issue (float_of_int sample)
  end;
  match record with None -> () | Some rc -> record_events t rc i ~until

(* Fetch reached row [i] at cycle [a]: past the packing, that is the
   event kernel's FOM-T132, unless its cycle limit fires first. *)
let[@inline] check_row t i a ~limit =
  if i >= t.len then begin
    if a > limit then raise Cycle_limit_exceeded;
    Fom_check.Checker.run_exn
      (Fom_check.Checker.fail ~code:"FOM-T132" ~path:"machine.trace"
         "packed trace exhausted before the run retired its target")
  end

(* Compute instructions from [last_computed + 1] on, while the index is
   at most [last] and fetch reaches the instruction before [until]. The
   previous instruction's fetch, dispatch and retirement cycles, the
   cycle fetch may resume after it (its completion if it is a
   mispredicted branch, else -1), the window floor and the steering
   turn are carried in locals. With [~settled], every event of an
   instruction falls in the run and is accounted here as {!settle}
   would. *)
let advance t ~last ~until ~limit ~settled record =
  let mask = t.mask and imask = t.issued_mask and bits = t.issued_bits in
  let width = t.width and window = t.window and rob = t.rob in
  let clusters = Array.length t.cluster_ring in
  let cluster_width = width / clusters and cluster_window = window / clusters in
  let fetch_at = t.fetch_at and dispatch_at = t.dispatch_at in
  let complete_at = t.complete_at and retire_at = t.retire_at in
  let cluster_at = t.cluster_at and pending = t.pending in
  let issued = t.issued and dep_off = t.dep_off and dep_val = t.dep_val in
  (* One cluster with unbounded units has ring 0 alone: no steering,
     bypass, cluster ring or unit to look at. *)
  let clustered = t.clustered and rings = Array.length issued lsr bits in
  let prev = t.last_computed land mask in
  let f_prev = ref fetch_at.(prev) and d_prev = ref dispatch_at.(prev) in
  let r_prev = ref retire_at.(prev) in
  let resume = ref (if t.branch_window.(prev) >= 0 then complete_at.(prev) else -1) in
  let base = ref t.base and below = ref t.below in
  let turn = ref t.next_cluster in
  let next = ref (t.last_computed + 1) in
  let go = ref true in
  while !go do
    let i = !next in
    (* Fetch: the attempt, from older instructions only, so it can be
       asked before deciding to compute [i]. *)
    let a = Int.max !f_prev (fetch_at.((i - t.fetch_limit) land mask) + 1) in
    let a = Int.max (Int.max a dispatch_at.((i - t.pipe_capacity) land mask)) !resume in
    if i > last || a >= until then go := false
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
      t.stall_at.(s) <- f - a;
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
            let slot = t.cluster_ring.(k) lor c in
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
      let own = t.cluster_ring.(cl) in
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
      t.branch_window.(s) <- sample;
      issued.(u land imask) <- issued.(u land imask) + 1;
      if clustered then begin
        issued.(own lor (u land imask)) <- issued.(own lor (u land imask)) + 1;
        pending.(cl) <- pending.(cl) + 1
      end;
      t.issue_at.(s) <- u;
      (* Completion and retirement. *)
      let c = u + t.latency.(op) in
      complete_at.(s) <- c;
      resume := if mispredicted then c else -1;
      let r = Int.max (Int.max c !r_prev) (retire_at.((i - width) land mask) + 1) in
      retire_at.(s) <- r;
      r_prev := r;
      if settled then begin
        t.occupancy_window_sum <- t.occupancy_window_sum + (u - d);
        t.occupancy_rob_sum <- t.occupancy_rob_sum + (r - d);
        if mispredicted then begin
          t.mispredictions <- t.mispredictions + 1;
          Fom_util.Stats.Acc.add t.window_at_branch_issue (float_of_int sample)
        end;
        match record with None -> () | Some rc -> record_events t rc i ~until:max_int
      end;
      next := i + 1
    end
  done;
  t.base <- !base;
  t.below <- !below;
  t.next_cluster <- !turn;
  t.last_computed <- !next - 1

let run config packed ~n ~limit ~record =
  let t = create config packed in
  let target = n - 1 in
  advance t ~last:target ~until:max_int ~limit ~settled:true record;
  (* Run ahead to the event kernel's last cycle: the target's
     retirement, or the cycle limit if that comes first (rows fetched by
     then may still run past the packing). *)
  let finish = t.retire_at.(target land t.mask) in
  let until = Int.min finish limit + 1 in
  advance t ~last:max_int ~until ~limit ~settled:false record;
  if finish > limit then raise Cycle_limit_exceeded;
  if t.last_computed - target > t.mask then
    Fom_check.Checker.internal_error "age-order stage ring overflow";
  for i = target + 1 to t.last_computed do
    settle t record i ~until
  done;
  let last = ref target in
  while !last < t.last_computed && t.retire_at.((!last + 1) land t.mask) < until do
    incr last
  done;
  let mean sum = float_of_int sum /. float_of_int until in
  {
    Stats.instructions = !last + 1;
    cycles = until;
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
    mean_window_occupancy = mean t.occupancy_window_sum;
    mean_rob_occupancy = mean t.occupancy_rob_sum;
  }
