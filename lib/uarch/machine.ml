module Opclass = Fom_isa.Opclass
module Latency = Fom_isa.Latency
module Hierarchy = Fom_cache.Hierarchy
module Predictor = Fom_branch.Predictor
module Packed = Fom_trace.Packed

exception Cycle_limit_exceeded

type record = {
  fetch : int array;
  dispatch : int array;
  issue : int array;
  complete : int array;
  retire : int array;
  cluster : int array;
  mispredicted : bool array;
  icache_stall : int array;
}

(* Observability (no-ops unless an Fom_obs sink is enabled). Counters
   accumulate across every machine in the process; [sim.events] counts
   ready-set insertions — the kernel's unit of work — and
   [sim.skipped_cycles] the idle cycles it jumped over. *)
let m_runs = Fom_obs.Metrics.counter "sim.runs"
let m_cycles = Fom_obs.Metrics.counter "sim.cycles"
let m_skipped = Fom_obs.Metrics.counter "sim.skipped_cycles"
let m_instructions = Fom_obs.Metrics.counter "sim.instructions"
let m_events = Fom_obs.Metrics.counter "sim.events"
let s_run = Fom_obs.Span.id "sim.run"

(* Calendar buckets. Wakeups land at most the longest issue latency
   ahead; waits beyond the ring (a long miss under an extreme memory
   latency) re-book when their bucket drains.
   A booking made at cycle [c] lands in [c + 1 .. c + calendar_size -
   1], so at any cycle every pending wakeup lies within the next
   [calendar_size] buckets. *)
let calendar_size = 1024

let calendar_mask = calendar_size - 1
let load_tag = Opclass.to_int Opclass.Load
let store_tag = Opclass.to_int Opclass.Store
let branch_tag = Opclass.to_int Opclass.Branch

(* The trace is a packed one, read in place: an instruction's fields
   are looked up by its dynamic index in the packing's columns, never
   copied. In-flight machine state lives in int columns keyed by slot
   = [index land slot_mask], sized per configuration
   ({!Config.comp_ring_size}) so that everything in flight — the ROB
   and the front-end pipe — maps to distinct slots. Nothing is
   allocated per instruction or per cycle.

   The ROB and the pipe always hold consecutive dynamic indices, so
   each is an index range: the ROB is [last_retired + 1 ..
   last_dispatched], the pipe [last_dispatched + 1 .. last_fetched].

   Completion: [comp_time.(slot)] is valid exactly when
   [comp_idx.(slot)] holds the index, i.e. once the instruction has
   issued; before that its completion time is unknown (infinite).

   The issue stage keeps every dispatched, unissued instruction in
   exactly one of three places: chained on the waiter list of a
   producer that has not issued, booked in the wakeup calendar for the
   cycle its operands complete, or in the ready set. The ready set is
   a bitmap over slots, as a hardware issue queue's ready vector:
   scanning it cyclically from the ROB head's slot visits ready
   instructions in age order, so issue picks oldest-first without a
   heap. When the ready set is empty the machine can only change state
   at a known future cycle (a completion, a dispatch, a fetch restart
   or a wakeup), and {!run} jumps there instead of stepping the idle
   cycles in between. *)
type t = {
  config : Config.t;
  (* the packed trace's columns, by dynamic index (see {!Packed}) *)
  len : int;
  tag : int array;
  pc : int array;
  mem : int array;
  ctrl : int array;
  dep_off : int array;
  dep_val : int array;
  (* per-slot machine state *)
  slot_mask : int;
  cluster : int array;  (* assigned at dispatch *)
  pipe_at : int array;  (* cycle a fetched instruction may dispatch *)
  comp_idx : int array;
  comp_time : int array;
  (* the in-flight index ranges *)
  mutable last_retired : int;
  mutable last_dispatched : int;
  mutable last_fetched : int;
  pipe_capacity : int;
  (* front end *)
  mutable fetch_stall_until : int;
  mutable blocking_branch : int;  (* unresolved mispredicted branch; -1 for none *)
  mutable last_line : int;
  l1i_line_mask : int;
  mutable win_count : int;  (* window occupancy: dispatched, unissued *)
  cluster_counts : int array;  (* window occupancy per cluster *)
  cluster_issued : int array;  (* issues this cycle per cluster *)
  mutable next_cluster : int;  (* round-robin dispatch steering *)
  clustered : bool;  (* more than one cluster: a bypass cycle can apply *)
  (* wakeup structures, keyed by slot *)
  ready_at : int array;  (* earliest-issue lower bound *)
  chain_next : int array;  (* link through waiter and calendar chains *)
  waiter_head : int array;  (* producer slot -> first parked consumer *)
  calendar : int array;  (* bucket -> chain of instructions waking *)
  ready : int array;  (* ready bitmap: bit [s land 31] of word [s lsr 5] *)
  mutable ready_count : int;  (* bits set in [ready] *)
  (* memory system *)
  hierarchy : Hierarchy.t;
  predictor : Predictor.t;
  dtlb : Fom_cache.Tlb.t option;
  walk_latency : int;
  (* Completion cycles of outstanding long misses, a FIFO ring that
     grows by doubling. Only expired entries at the front leave it, and
     with a dTLB walk completion times are not monotone, so an expired
     entry behind a later one still counts as outstanding. *)
  mutable long_miss : int array;
  mutable long_miss_head : int;
  mutable long_miss_len : int;
  (* per-class tables and per-cycle structural state *)
  latency : int array;  (* by class tag *)
  fu_limit : int array;  (* by class tag; max_int when unbounded *)
  fu_unbounded : bool;
  fu_busy : int array;  (* instructions issued this cycle per class *)
  (* bookkeeping *)
  mutable cycle : int;
  mutable wake_events : int;  (* ready-set insertions, for sim.events *)
  mutable skipped_cycles : int;  (* idle cycles jumped over *)
  mutable record : record option;  (* stage cycles, during {!run_recorded} *)
  (* statistics *)
  mutable short_load_misses : int;
  mutable long_load_misses : int;
  mutable dtlb_misses : int;
  mutable mispredictions : int;
  mutable mispred_under_long : int;
  mutable imiss_under_long : int;
  window_at_branch_issue : Fom_util.Stats.Acc.t;
  rob_ahead_of_long_miss : Fom_util.Stats.Acc.t;
  mutable occupancy_window_sum : int;
  mutable occupancy_rob_sum : int;
}

let create config packed =
  Config.validate config;
  let ring = Config.comp_ring_size config in
  let by_class f = Array.init Opclass.count (fun tag -> f (Opclass.of_int tag)) in
  let fu_limit = by_class (Fom_isa.Fu_set.of_class config.Config.fu_limits) in
  let dtlb = Option.map Fom_cache.Tlb.create config.Config.dtlb in
  {
    config;
    len = packed.Packed.len;
    tag = packed.Packed.tag;
    pc = packed.Packed.pc;
    mem = packed.Packed.mem;
    ctrl = packed.Packed.ctrl;
    dep_off = packed.Packed.dep_off;
    dep_val = packed.Packed.dep_val;
    slot_mask = ring - 1;
    cluster = Array.make ring 0;
    pipe_at = Array.make ring 0;
    comp_idx = Array.make ring (-1);
    comp_time = Array.make ring 0;
    last_retired = -1;
    last_dispatched = -1;
    last_fetched = -1;
    pipe_capacity =
      (config.Config.width * config.Config.pipeline_depth) + config.Config.fetch_buffer;
    fetch_stall_until = 0;
    blocking_branch = -1;
    last_line = -1;
    l1i_line_mask =
      (match config.Config.cache.Hierarchy.l1i with
      | Hierarchy.Real g -> lnot (g.Fom_cache.Geometry.line - 1)
      | Hierarchy.Ideal -> lnot 127);
    win_count = 0;
    cluster_counts = Array.make config.Config.clusters 0;
    cluster_issued = Array.make config.Config.clusters 0;
    next_cluster = 0;
    clustered = config.Config.clusters > 1;
    ready_at = Array.make ring 0;
    chain_next = Array.make ring (-1);
    waiter_head = Array.make ring (-1);
    calendar = Array.make calendar_size (-1);
    ready = Array.make (ring / 32) 0;
    ready_count = 0;
    hierarchy = Hierarchy.create config.Config.cache;
    predictor = Predictor.create config.Config.predictor;
    dtlb;
    walk_latency =
      (match dtlb with
      | Some d -> (Fom_cache.Tlb.spec d).Fom_cache.Tlb.walk_latency
      | None -> 0);
    long_miss = Array.make 64 0;
    long_miss_head = 0;
    long_miss_len = 0;
    latency = Latency.table config.Config.latencies;
    fu_limit;
    fu_unbounded = Array.for_all (fun l -> l = max_int) fu_limit;
    fu_busy = Array.make Opclass.count 0;
    cycle = 0;
    wake_events = 0;
    skipped_cycles = 0;
    record = None;
    short_load_misses = 0;
    long_load_misses = 0;
    dtlb_misses = 0;
    mispredictions = 0;
    mispred_under_long = 0;
    imiss_under_long = 0;
    window_at_branch_issue = Fom_util.Stats.Acc.create ();
    rob_ahead_of_long_miss = Fom_util.Stats.Acc.create ();
    occupancy_window_sum = 0;
    occupancy_rob_sum = 0;
  }

let completed t idx =
  let s = idx land t.slot_mask in
  t.comp_idx.(s) = idx && t.comp_time.(s) <= t.cycle

(* A value produced in another cluster needs one extra bypass cycle
   (ancient producers are long past any bypass network). *)
let dep_complete t ~cluster d =
  d <= t.last_retired
  ||
  let s = d land t.slot_mask in
  t.comp_idx.(s) = d
  &&
  let bypass = if t.cluster.(s) = cluster then 0 else 1 in
  t.comp_time.(s) + bypass <= t.cycle

let deps_ready t idx =
  let cluster = t.cluster.(idx land t.slot_mask) in
  let k = ref t.dep_off.(idx) in
  let hi = t.dep_off.(idx + 1) in
  while !k < hi && dep_complete t ~cluster t.dep_val.(!k) do
    incr k
  done;
  !k >= hi

(* Pop expired long misses off the front. Doing so at any cycle pops a
   prefix of what a later call would, so callers may drain early. *)
let drain_long_misses t =
  let mask = Array.length t.long_miss - 1 in
  while t.long_miss_len > 0 && t.long_miss.(t.long_miss_head) <= t.cycle do
    t.long_miss_head <- (t.long_miss_head + 1) land mask;
    t.long_miss_len <- t.long_miss_len - 1
  done

let long_misses_outstanding t =
  drain_long_misses t;
  t.long_miss_len

let push_long_miss t time =
  drain_long_misses t;
  let cap = Array.length t.long_miss in
  if t.long_miss_len = cap then begin
    let grown = Array.make (2 * cap) 0 in
    for k = 0 to cap - 1 do
      grown.(k) <- t.long_miss.((t.long_miss_head + k) land (cap - 1))
    done;
    t.long_miss <- grown;
    t.long_miss_head <- 0
  end;
  let mask = Array.length t.long_miss - 1 in
  t.long_miss.((t.long_miss_head + t.long_miss_len) land mask) <- time;
  t.long_miss_len <- t.long_miss_len + 1

let retire t =
  let budget = ref t.config.Config.width in
  while !budget > 0 && t.last_retired < t.last_dispatched && completed t (t.last_retired + 1) do
    t.last_retired <- t.last_retired + 1;
    (match t.record with Some r -> r.retire.(t.last_retired) <- t.cycle | None -> ());
    decr budget
  done

(* Translate a memory access; a TLB miss adds the walk latency up
   front (the walk precedes the cache access). Store misses fill the
   TLB but are not counted as miss-events: the write buffer hides
   them, mirroring the treatment of store cache misses. *)
let translate t addr ~count =
  match t.dtlb with
  | None -> 0
  | Some dtlb ->
      if Fom_cache.Tlb.access dtlb addr then 0
      else begin
        if count then t.dtlb_misses <- t.dtlb_misses + 1;
        t.walk_latency
      end

let issue_latency t idx =
  let op = t.tag.(idx) in
  let lat = t.latency.(op) in
  if op = load_tag then begin
    let addr = t.mem.(idx) in
    let walk = translate t addr ~count:true in
    let outcome = Hierarchy.access_data t.hierarchy addr in
    let cache_lat = Hierarchy.data_latency t.hierarchy outcome in
    match outcome with
    | Hierarchy.L1_hit -> walk + Int.max lat cache_lat
    | Hierarchy.L2_hit ->
        t.short_load_misses <- t.short_load_misses + 1;
        walk + Int.max lat cache_lat
    | Hierarchy.Memory ->
        t.long_load_misses <- t.long_load_misses + 1;
        push_long_miss t (t.cycle + walk + cache_lat);
        (* Entries in the ROB ahead of this load: an index
           difference, the ROB being an index range. *)
        Fom_util.Stats.Acc.add t.rob_ahead_of_long_miss
          (float_of_int (idx - (t.last_retired + 1)));
        walk + cache_lat
  end
  else if op = store_tag then begin
    (* Stores update the TLB and cache for residency but never block:
       a write buffer absorbs them (the paper models data-cache
       penalties through loads only). *)
    let addr = t.mem.(idx) in
    ignore (translate t addr ~count:false);
    ignore (Hierarchy.access_data t.hierarchy addr);
    lat
  end
  else lat

(* The bookkeeping when instruction [idx] issues this cycle;
   [issued_before] is how many issued earlier this cycle. *)
let issue_instr t idx ~issued_before =
  let s = idx land t.slot_mask in
  let op = t.tag.(idx) and c = t.cluster.(s) in
  if not t.fu_unbounded then t.fu_busy.(op) <- t.fu_busy.(op) + 1;
  t.cluster_issued.(c) <- t.cluster_issued.(c) + 1;
  t.cluster_counts.(c) <- t.cluster_counts.(c) - 1;
  let complete = t.cycle + issue_latency t idx in
  t.comp_idx.(s) <- idx;
  t.comp_time.(s) <- complete;
  (match t.record with
  | Some r -> r.issue.(idx) <- t.cycle; r.complete.(idx) <- complete
  | None -> ());
  if idx = t.blocking_branch then
    Fom_util.Stats.Acc.add t.window_at_branch_issue
      (float_of_int (t.win_count - issued_before - 1))

(* Lowest set bit of a nonzero 32-bit word: isolate it, then a de
   Bruijn multiply puts a distinct 5-bit pattern in the top bits. *)
let debruijn = 0x077C_B531

let debruijn_position =
  let table = Array.make 32 0 in
  for i = 0 to 31 do
    table.((((1 lsl i) * debruijn) land 0xFFFF_FFFF) lsr 27) <- i
  done;
  table

let lowest_bit x = debruijn_position.((((x land -x) * debruijn) land 0xFFFF_FFFF) lsr 27)

let mark_ready t s =
  let w = s lsr 5 in
  t.ready.(w) <- t.ready.(w) lor (1 lsl (s land 31));
  t.ready_count <- t.ready_count + 1;
  t.wake_events <- t.wake_events + 1

let clear_ready t s =
  let w = s lsr 5 in
  t.ready.(w) <- t.ready.(w) land lnot (1 lsl (s land 31));
  t.ready_count <- t.ready_count - 1

let book_wakeup t idx ~at =
  let s = idx land t.slot_mask in
  (* Waits past the calendar horizon re-book when the clamped bucket
     drains ([ready_at] keeps the true cycle). *)
  let target = if at - t.cycle >= calendar_size then t.cycle + calendar_size - 1 else at in
  let b = target land calendar_mask in
  t.chain_next.(s) <- t.calendar.(b);
  t.calendar.(b) <- idx

(* Park a dispatched, unissued instruction on the wakeup structures:
   chained on one still-unissued producer (its issue event re-parks
   us), or booked in the calendar for the cycle its last producer's
   value completes — never before the next cycle. On a clustered
   machine the booked cycle is a lower bound, not the exact issue
   cycle: retirement can waive a cross-cluster bypass and a bypass can
   push one cycle past it, so [issue_event] re-evaluates [deps_ready]
   exactly when the instruction surfaces. With one cluster there is no
   bypass: every producer counted has issued, its completion time is
   final, and the booked cycle is exact.

   With [~mark], an instruction whose operands complete by the next
   cycle goes straight into the ready set instead of that cycle's
   bucket. Only dispatch may do so: it runs after this cycle's issue
   scan, whereas an instruction re-parked during the scan must not
   become visible to the scan still in progress. *)
let place t idx ~mark =
  let s = idx land t.slot_mask in
  let k = ref t.dep_off.(idx) in
  let hi = t.dep_off.(idx + 1) in
  let floor = t.cycle + 1 in
  let at = ref floor in
  let parked = ref false in
  while (not !parked) && !k < hi do
    let d = t.dep_val.(!k) in
    (if d > t.last_retired then
       let ds = d land t.slot_mask in
       if t.comp_idx.(ds) = d then begin
         if t.comp_time.(ds) > !at then at := t.comp_time.(ds)
       end
       else begin
         (* The producer has not issued: wait for its issue event. *)
         t.chain_next.(s) <- t.waiter_head.(ds);
         t.waiter_head.(ds) <- idx;
         parked := true
       end);
    incr k
  done;
  if not !parked then begin
    t.ready_at.(s) <- !at;
    if mark && !at = floor then mark_ready t s else book_wakeup t idx ~at:!at
  end

let issue t =
  let width = t.config.Config.width in
  let clusters = t.config.Config.clusters in
  let cluster_width = width / clusters in
  let unbounded = t.config.Config.unbounded_issue in
  (* Zero the per-cycle issue counts (the FU counts are only kept when
     some class is limited). *)
  if not t.fu_unbounded then Array.fill t.fu_busy 0 Opclass.count 0;
  Array.fill t.cluster_issued 0 clusters 0;
  (* Wake this cycle's calendar bucket into the ready set. *)
  let bucket = t.cycle land calendar_mask in
  let woken = ref t.calendar.(bucket) in
  t.calendar.(bucket) <- -1;
  while !woken >= 0 do
    let idx = !woken in
    let s = idx land t.slot_mask in
    woken := t.chain_next.(s);
    let at = t.ready_at.(s) in
    if at <= t.cycle then mark_ready t s else book_wakeup t idx ~at
  done;
  (* Issue oldest-first up to the width limit, visiting the set bits
     in slot order from the ROB head's slot: word [hw] from the head's
     bit up, the other words in turn, then [hw]'s bits below the head.
     On a clustered machine, a ready instruction whose exact readiness
     check fails leaves the set and re-parks (at most one extra wake,
     for a cross-cluster bypass). One blocked only by a cluster or
     functional-unit budget keeps its bit, so younger instructions of
     other clusters and classes still get their scan turn, as an
     oldest-first scan of the whole window would skip over it. *)
  let issued = ref 0 in
  let head = t.last_retired + 1 in
  let h = head land t.slot_mask in
  let words = Array.length t.ready in
  let hw = h lsr 5 in
  let below_head = (1 lsl (h land 31)) - 1 in
  let unvisited = ref t.ready_count in
  let k = ref 0 in
  while !unvisited > 0 && !k <= words && (unbounded || !issued < width) do
    let w = (hw + !k) land (words - 1) in
    let bits =
      ref
        (if !k = 0 then t.ready.(w) land lnot below_head
         else if !k = words then t.ready.(w) land below_head
         else t.ready.(w))
    in
    while !bits <> 0 && (unbounded || !issued < width) do
      let s = (w lsl 5) lor lowest_bit !bits in
      bits := !bits land (!bits - 1);
      decr unvisited;
      let idx = head + ((s - h) land t.slot_mask) in
      if t.clustered && not (deps_ready t idx) then begin
        clear_ready t s;
        place t idx ~mark:false
      end
      else if
        (unbounded || t.cluster_issued.(t.cluster.(s)) < cluster_width)
        && (t.fu_unbounded || t.fu_busy.(t.tag.(idx)) < t.fu_limit.(t.tag.(idx)))
      then begin
        clear_ready t s;
        issue_instr t idx ~issued_before:!issued;
        incr issued;
        (* Its value has a completion time now: re-park every consumer
           waiting on this producer (their earliest cycle is past this
           one, so the calendar holds them). *)
        let waiter = ref t.waiter_head.(s) in
        t.waiter_head.(s) <- -1;
        while !waiter >= 0 do
          let c = !waiter in
          waiter := t.chain_next.(c land t.slot_mask);
          place t c ~mark:false
        done
      end
    done;
    incr k
  done;
  t.win_count <- t.win_count - !issued

(* Round-robin steering; a full cluster passes its turn. The window
   space guard in [dispatch] ensures at least one cluster has room. *)
let steer t =
  let clusters = t.config.Config.clusters in
  let capacity = t.config.Config.window_size / clusters in
  let c = ref t.next_cluster in
  let tries = ref 1 in
  while t.cluster_counts.(!c) >= capacity do
    if !tries = clusters then
      Fom_check.Checker.internal_error "no cluster has window space at dispatch";
    c := if !c + 1 = clusters then 0 else !c + 1;
    incr tries
  done;
  t.next_cluster <- (if !c + 1 = clusters then 0 else !c + 1);
  !c

let dispatch t =
  let budget = ref t.config.Config.width in
  let continue_ = ref true in
  while
    !continue_ && !budget > 0
    && t.win_count < t.config.Config.window_size
    && t.last_dispatched - t.last_retired < t.config.Config.rob_size
    && t.last_dispatched < t.last_fetched
  do
    let idx = t.last_dispatched + 1 in
    let s = idx land t.slot_mask in
    if t.pipe_at.(s) <= t.cycle then begin
      t.last_dispatched <- idx;
      let c = steer t in
      t.cluster.(s) <- c;
      t.cluster_counts.(c) <- t.cluster_counts.(c) + 1;
      (match t.record with
      | Some r -> r.dispatch.(idx) <- t.cycle; r.cluster.(idx) <- c
      | None -> ());
      (* Issue runs before dispatch each cycle, so a newly dispatched
         instruction is first eligible next cycle. *)
      place t idx ~mark:true;
      t.win_count <- t.win_count + 1;
      decr budget
    end
    else continue_ := false
  done

let fetch t =
  if t.blocking_branch >= 0 && completed t t.blocking_branch then t.blocking_branch <- -1;
  if t.blocking_branch < 0 && t.cycle >= t.fetch_stall_until then begin
    let width = t.config.Config.width in
    (* With a fetch buffer, fetch is line-based and bursty: it can run
       ahead of dispatch at up to twice the machine width while buffer
       space remains, which is what lets the buffer hide I-miss
       stalls. *)
    let fetch_limit = if t.config.Config.fetch_buffer > 0 then 2 * width else width in
    let fetched = ref 0 in
    let stopped = ref false in
    while
      (not !stopped) && !fetched < fetch_limit
      && t.last_fetched - t.last_dispatched < t.pipe_capacity
    do
      let idx = t.last_fetched + 1 in
      Fom_check.Checker.ensure ~code:"FOM-T132" ~path:"machine.trace" (idx < t.len)
        "packed trace exhausted before the run retired its target";
      let pc = t.pc.(idx) in
      let line = pc land t.l1i_line_mask in
      let icache_ok =
        if line = t.last_line then true
        else begin
          let outcome = Hierarchy.access_inst t.hierarchy pc in
          t.last_line <- line;
          match outcome with
          | Hierarchy.L1_hit -> true
          | Hierarchy.L2_hit | Hierarchy.Memory ->
              if long_misses_outstanding t > 0 then
                t.imiss_under_long <- t.imiss_under_long + 1;
              let stall = Hierarchy.inst_stall t.hierarchy outcome in
              t.fetch_stall_until <- t.cycle + stall;
              (* Recorded as the cycles until fetch may resume: a
                 zero-cycle fill still ends this cycle's fetch. *)
              (match t.record with Some r -> r.icache_stall.(idx) <- Int.max 1 stall | None -> ());
              (* The line is now resident: do not re-probe when the
                 stalled instruction is finally fetched. *)
              false
        end
      in
      if not icache_ok then stopped := true
      else begin
        t.pipe_at.(idx land t.slot_mask) <- t.cycle + t.config.Config.pipeline_depth;
        t.last_fetched <- idx;
        (match t.record with Some r -> r.fetch.(idx) <- t.cycle | None -> ());
        incr fetched;
        if t.tag.(idx) = branch_tag then begin
          let taken = t.ctrl.(idx) >= 0 && t.ctrl.(idx) land 1 = 1 in
          let correct = Predictor.observe t.predictor ~pc ~taken in
          if not correct then begin
            t.mispredictions <- t.mispredictions + 1;
            (match t.record with Some r -> r.mispredicted.(idx) <- true | None -> ());
            if long_misses_outstanding t > 0 then
              t.mispred_under_long <- t.mispred_under_long + 1;
            t.blocking_branch <- idx;
            stopped := true
          end
        end
      end
    done
  end

let step t =
  retire t;
  issue t;
  dispatch t;
  fetch t;
  t.occupancy_window_sum <- t.occupancy_window_sum + t.win_count;
  t.occupancy_rob_sum <- t.occupancy_rob_sum + (t.last_dispatched - t.last_retired);
  t.cycle <- t.cycle + 1

(* With the ready set empty, nothing happens before the earliest of:
   the ROB head's completion (retire), the next dispatch, the blocking
   branch's resolution or the end of a fetch stall, and the first
   non-empty calendar bucket. Jump to that cycle (at most [limit + 1],
   where the cycle-limit check fires), accounting the skipped cycles
   as the steps they replace: same occupancy sums, zero issues. *)
let skip_idle t ~limit =
  let next = ref max_int in
  let head = t.last_retired + 1 in
  if head <= t.last_dispatched && t.comp_idx.(head land t.slot_mask) = head then
    next := t.comp_time.(head land t.slot_mask);
  if
    t.win_count < t.config.Config.window_size
    && t.last_dispatched - t.last_retired < t.config.Config.rob_size
    && t.last_dispatched < t.last_fetched
  then next := Int.min !next t.pipe_at.((t.last_dispatched + 1) land t.slot_mask);
  let b = t.blocking_branch in
  if b >= 0 then begin
    if t.comp_idx.(b land t.slot_mask) = b then
      next := Int.min !next t.comp_time.(b land t.slot_mask)
  end
  else if t.last_fetched - t.last_dispatched < t.pipe_capacity then
    next := Int.min !next t.fetch_stall_until;
  let horizon = Int.min !next (t.cycle + calendar_size) in
  let c = ref t.cycle in
  while !c < horizon && t.calendar.(!c land calendar_mask) < 0 do
    incr c
  done;
  if !c < horizon then next := !c;
  let next = Int.min !next (limit + 1) in
  if next > t.cycle then begin
    let k = next - t.cycle in
    t.occupancy_window_sum <- t.occupancy_window_sum + (k * t.win_count);
    t.occupancy_rob_sum <- t.occupancy_rob_sum + (k * (t.last_dispatched - t.last_retired));
    t.skipped_cycles <- t.skipped_cycles + k;
    t.cycle <- next
  end

let run ?cycle_limit t ~n =
  (* The budget is relative to the current cycle so that a machine can
     be resumed with successive [run] calls. *)
  let limit = t.cycle + Option.value cycle_limit ~default:((250 * n) + 100_000) in
  let target = t.last_retired + n in
  let c0 = t.cycle and r0 = t.last_retired and e0 = t.wake_events in
  let k0 = t.skipped_cycles in
  Fom_obs.Span.with_ s_run (fun () ->
      while t.last_retired < target do
        if t.cycle > limit then raise Cycle_limit_exceeded;
        step t;
        if t.ready_count = 0 && t.last_retired < target then skip_idle t ~limit
      done);
  Fom_obs.Metrics.incr m_runs;
  Fom_obs.Metrics.add m_cycles (t.cycle - c0);
  Fom_obs.Metrics.add m_skipped (t.skipped_cycles - k0);
  Fom_obs.Metrics.add m_instructions (t.last_retired - r0);
  Fom_obs.Metrics.add m_events (t.wake_events - e0);
  let mean sum = float_of_int sum /. float_of_int (Int.max 1 t.cycle) in
  let cache_stats = Hierarchy.stats t.hierarchy in
  {
    Stats.instructions = t.last_retired + 1;
    cycles = t.cycle;
    branch_mispredictions = t.mispredictions;
    l1i_misses = cache_stats.Hierarchy.l1i_misses - cache_stats.Hierarchy.l2i_misses;
    l2i_misses = cache_stats.Hierarchy.l2i_misses;
    short_data_misses = t.short_load_misses;
    long_data_misses = t.long_load_misses;
    dtlb_misses = t.dtlb_misses;
    mispredictions_under_long_miss = t.mispred_under_long;
    imisses_under_long_miss = t.imiss_under_long;
    window_at_branch_issue = Fom_util.Stats.Acc.mean t.window_at_branch_issue;
    rob_ahead_of_long_miss = Fom_util.Stats.Acc.mean t.rob_ahead_of_long_miss;
    mean_window_occupancy = mean t.occupancy_window_sum;
    mean_rob_occupancy = mean t.occupancy_rob_sum;
  }

let run_recorded ?cycle_limit t ~n =
  let column init = Array.make t.len init in
  let r =
    {
      fetch = column (-1);
      dispatch = column (-1);
      issue = column (-1);
      complete = column (-1);
      retire = column (-1);
      cluster = column (-1);
      mispredicted = Array.make t.len false;
      icache_stall = column 0;
    }
  in
  t.record <- Some r;
  let stats = Fun.protect ~finally:(fun () -> t.record <- None) (fun () -> run ?cycle_limit t ~n) in
  (stats, r)
