module Instr = Fom_isa.Instr
module Opclass = Fom_isa.Opclass
module Latency = Fom_isa.Latency
module Hierarchy = Fom_cache.Hierarchy
module Predictor = Fom_branch.Predictor
module Packed = Fom_trace.Packed

exception Cycle_limit_exceeded

type kernel = Scan | Event

(* Observability (no-ops unless an Fom_obs sink is enabled). Counters
   accumulate across every machine in the process; [sim.events] counts
   ready-heap insertions — the event kernel's unit of work. *)
let m_runs = Fom_obs.Metrics.counter "sim.runs"
let m_cycles = Fom_obs.Metrics.counter "sim.cycles"
let m_instructions = Fom_obs.Metrics.counter "sim.instructions"
let m_events = Fom_obs.Metrics.counter "sim.events"
let s_run = Fom_obs.Span.id "sim.run"

(* Where fetched instructions come from: a pull thunk materializing
   {!Fom_isa.Instr.t} values, or packed columns read in place. *)
type feed = Thunk of (unit -> Instr.t) | Packed of Packed.t

(* Calendar buckets for the event kernel. Wakeups land at most the
   longest issue latency ahead; waits beyond the ring (a long miss
   under an extreme memory latency) re-book when their bucket drains. *)
let calendar_size = 1024

let calendar_mask = calendar_size - 1
let load_tag = Opclass.to_int Opclass.Load
let store_tag = Opclass.to_int Opclass.Store
let branch_tag = Opclass.to_int Opclass.Branch

(* In-flight state lives in int columns keyed by slot = [index land
   slot_mask], sized per configuration ({!Config.comp_ring_bits}) so
   that everything in flight — ROB, front-end pipe and an instruction
   held back by an I-miss — maps to distinct slots. Fetch decodes an
   instruction straight into its slot's columns; nothing is allocated
   per instruction or per cycle.

   The ROB and the pipe always hold consecutive dynamic indices, so
   each is an index range: the ROB is [last_retired + 1 ..
   last_dispatched], the pipe [last_dispatched + 1 .. last_fetched].

   Completion: [comp_time.(slot)] is valid exactly when
   [comp_idx.(slot)] holds the index, i.e. once the instruction has
   issued; before that its completion time is unknown (infinite). *)
type t = {
  config : Config.t;
  kernel : kernel;
  feed : feed;
  slot_mask : int;
  (* per-slot columns, decoded at fetch *)
  op : int array;  (* {!Opclass.to_int} tag *)
  pc : int array;
  mem : int array;  (* effective address, -1 for non-memory ops *)
  taken : bool array;  (* conditional-branch direction *)
  deps : int array array;
      (* dependence backing array; [dep_lo], [dep_n] delimit the slot's
         slice: the packed trace's CSR column (every slot, set once) or
         the instruction's own [deps] array — never a copy *)
  dep_lo : int array;
  dep_n : int array;
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
  mutable pending : int;  (* decoded but stalled on an I-miss; -1 for none *)
  mutable fetch_stall_until : int;
  mutable blocking_branch : int;  (* unresolved mispredicted branch; -1 for none *)
  mutable last_line : int;
  l1i_line_mask : int;
  (* window: age-ordered dense array of indices (Scan kernel only) *)
  window : int array;
  mutable win_count : int;
  cluster_counts : int array;  (* window occupancy per cluster *)
  cluster_issued : int array;  (* issues this cycle per cluster *)
  mutable next_cluster : int;  (* round-robin dispatch steering *)
  (* event kernel wakeup structures, keyed by slot *)
  ready_at : int array;  (* earliest-issue lower bound *)
  chain_next : int array;  (* link through waiter and calendar chains *)
  waiter_head : int array;  (* producer slot -> first parked consumer *)
  calendar : int array;  (* bucket -> chain of instructions waking *)
  heap : int array;  (* min-heap of ready indices = age order *)
  mutable heap_len : int;
  stash : int array;  (* ready but budget-blocked this cycle *)
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
  mutable wake_events : int;  (* ready-heap insertions, for sim.events *)
  (* optional per-cycle recording *)
  mutable recording : bool;
  mutable issued_this_cycle : int;
  issue_record : Fom_util.Int_buffer.t;
  resolve_record : Fom_util.Int_buffer.t;
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

let create_feed ?(kernel = Event) config feed =
  Config.validate config;
  let ring = Config.comp_ring_size config in
  (* Each kernel allocates only its own machinery: the scan kernel the
     age-ordered window array, the event kernel the wakeup tables. *)
  let scan = kernel = Scan in
  let by_class f = Array.init Opclass.count (fun tag -> f (Opclass.of_int tag)) in
  let fu_limit = by_class (Fom_isa.Fu_set.of_class config.Config.fu_limits) in
  let dtlb = Option.map Fom_cache.Tlb.create config.Config.dtlb in
  {
    config;
    kernel;
    feed;
    slot_mask = ring - 1;
    op = Array.make ring 0;
    pc = Array.make ring 0;
    mem = Array.make ring (-1);
    taken = Array.make ring false;
    deps = Array.make ring (match feed with Packed p -> p.Packed.dep_val | Thunk _ -> [||]);
    dep_lo = Array.make ring 0;
    dep_n = Array.make ring 0;
    cluster = Array.make ring 0;
    pipe_at = Array.make ring 0;
    comp_idx = Array.make ring (-1);
    comp_time = Array.make ring 0;
    last_retired = -1;
    last_dispatched = -1;
    last_fetched = -1;
    pipe_capacity =
      (config.Config.width * config.Config.pipeline_depth) + config.Config.fetch_buffer;
    pending = -1;
    fetch_stall_until = 0;
    blocking_branch = -1;
    last_line = -1;
    l1i_line_mask =
      (match config.Config.cache.Hierarchy.l1i with
      | Hierarchy.Real g -> lnot (g.Fom_cache.Geometry.line - 1)
      | Hierarchy.Ideal -> lnot 127);
    window = Array.make (if scan then config.Config.window_size else 1) 0;
    win_count = 0;
    cluster_counts = Array.make config.Config.clusters 0;
    cluster_issued = Array.make config.Config.clusters 0;
    next_cluster = 0;
    ready_at = Array.make (if scan then 1 else ring) 0;
    chain_next = Array.make (if scan then 1 else ring) (-1);
    waiter_head = Array.make (if scan then 1 else ring) (-1);
    calendar = Array.make (if scan then 1 else calendar_size) (-1);
    heap = Array.make (if scan then 1 else config.Config.window_size) 0;
    heap_len = 0;
    stash = Array.make (if scan then 1 else config.Config.window_size) 0;
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
    recording = false;
    issued_this_cycle = 0;
    issue_record = Fom_util.Int_buffer.create ();
    resolve_record = Fom_util.Int_buffer.create ();
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

let create ?kernel config next_instr = create_feed ?kernel config (Thunk next_instr)
let create_packed ?kernel config packed = create_feed ?kernel config (Packed packed)

(* Decode instruction [idx] into its slot. The packed path reads the
   columns in place; the thunk path keeps the instruction's own
   dependence array. Both decode identical field values, so the
   simulated machine is bit-identical either way. *)
let decode t idx =
  let s = idx land t.slot_mask in
  match t.feed with
  | Thunk next ->
      let i = next () in
      Fom_check.Checker.ensure ~code:"FOM-T133" ~path:"machine.feed" (i.Instr.index = idx)
        "thunk feed must yield consecutive dynamic indices from 0";
      t.op.(s) <- Opclass.to_int i.Instr.opclass;
      t.pc.(s) <- i.Instr.pc;
      t.mem.(s) <- (match i.Instr.mem with Some addr -> addr | None -> -1);
      t.taken.(s) <- (match i.Instr.ctrl with Some c -> c.Instr.taken | None -> false);
      t.deps.(s) <- i.Instr.deps;
      t.dep_lo.(s) <- 0;
      t.dep_n.(s) <- Array.length i.Instr.deps
  | Packed packed ->
      Fom_check.Checker.ensure ~code:"FOM-T132" ~path:"machine.feed"
        (idx < packed.Packed.len)
        "packed trace exhausted before the run retired its target";
      let ctrl = packed.Packed.ctrl.(idx) in
      let dep_lo = packed.Packed.dep_off.(idx) in
      t.op.(s) <- packed.Packed.tag.(idx);
      t.pc.(s) <- packed.Packed.pc.(idx);
      t.mem.(s) <- packed.Packed.mem.(idx);
      t.taken.(s) <- ctrl >= 0 && ctrl land 1 = 1;
      t.dep_lo.(s) <- dep_lo;
      t.dep_n.(s) <- packed.Packed.dep_off.(idx + 1) - dep_lo

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

let deps_ready t s =
  let deps = t.deps.(s) in
  let cluster = t.cluster.(s) in
  let k = ref t.dep_lo.(s) in
  let hi = !k + t.dep_n.(s) in
  while !k < hi && dep_complete t ~cluster deps.(!k) do
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

let issue_latency t idx s =
  let op = t.op.(s) in
  let lat = t.latency.(op) in
  if op = load_tag then begin
    let addr = t.mem.(s) in
    let walk = translate t addr ~count:true in
    let outcome = Hierarchy.access_data t.hierarchy addr in
    let cache_lat = Hierarchy.data_latency t.hierarchy outcome in
    match outcome with
    | Hierarchy.L1_hit -> walk + Stdlib.max lat cache_lat
    | Hierarchy.L2_hit ->
        t.short_load_misses <- t.short_load_misses + 1;
        walk + Stdlib.max lat cache_lat
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
    let addr = t.mem.(s) in
    ignore (translate t addr ~count:false);
    ignore (Hierarchy.access_data t.hierarchy addr);
    lat
  end
  else lat

let fu_available t s =
  t.fu_unbounded
  ||
  let op = t.op.(s) in
  t.fu_busy.(op) < t.fu_limit.(op)

(* The bookkeeping shared by both kernels when instruction [idx] issues
   this cycle; [issued_before] is how many issued earlier this cycle. *)
let issue_instr t idx ~issued_before =
  let s = idx land t.slot_mask in
  let op = t.op.(s) and c = t.cluster.(s) in
  if not t.fu_unbounded then t.fu_busy.(op) <- t.fu_busy.(op) + 1;
  t.cluster_issued.(c) <- t.cluster_issued.(c) + 1;
  t.cluster_counts.(c) <- t.cluster_counts.(c) - 1;
  let complete = t.cycle + issue_latency t idx s in
  t.comp_idx.(s) <- idx;
  t.comp_time.(s) <- complete;
  if idx = t.blocking_branch then
    Fom_util.Stats.Acc.add t.window_at_branch_issue
      (float_of_int (t.win_count - issued_before - 1))

(* Zero the per-cycle issue counts (the FU counts are only kept when
   some class is limited). *)
let reset_cycle_budgets t =
  if not t.fu_unbounded then
    for op = 0 to Opclass.count - 1 do
      t.fu_busy.(op) <- 0
    done;
  for c = 0 to t.config.Config.clusters - 1 do
    t.cluster_issued.(c) <- 0
  done

let issue_scan t =
  let width = t.config.Config.width in
  let clusters = t.config.Config.clusters in
  let cluster_width = width / clusters in
  let unbounded = t.config.Config.unbounded_issue in
  reset_cycle_budgets t;
  let issued = ref 0 in
  let kept = ref 0 in
  for i = 0 to t.win_count - 1 do
    let idx = t.window.(i) in
    let s = idx land t.slot_mask in
    if
      (unbounded || (!issued < width && t.cluster_issued.(t.cluster.(s)) < cluster_width))
      && fu_available t s && deps_ready t s
    then begin
      issue_instr t idx ~issued_before:!issued;
      incr issued
    end
    else begin
      (* Compact survivors in place, preserving age order. *)
      t.window.(!kept) <- idx;
      incr kept
    end
  done;
  t.win_count <- !kept;
  t.issued_this_cycle <- !issued

(* --- event kernel --- *)

let heap_push t v =
  if t.heap_len >= Array.length t.heap then
    Fom_check.Checker.internal_error "ready-heap overflow";
  t.wake_events <- t.wake_events + 1;
  let heap = t.heap in
  let k = ref t.heap_len in
  t.heap_len <- t.heap_len + 1;
  heap.(!k) <- v;
  let sifting = ref true in
  while !sifting && !k > 0 do
    let parent = (!k - 1) / 2 in
    if heap.(parent) > heap.(!k) then begin
      let tmp = heap.(parent) in
      heap.(parent) <- heap.(!k);
      heap.(!k) <- tmp;
      k := parent
    end
    else sifting := false
  done

let heap_pop t =
  let heap = t.heap in
  let top = heap.(0) in
  t.heap_len <- t.heap_len - 1;
  heap.(0) <- heap.(t.heap_len);
  let k = ref 0 in
  let sifting = ref true in
  while !sifting do
    let l = (2 * !k) + 1 and r = (2 * !k) + 2 in
    let s = ref !k in
    if l < t.heap_len && heap.(l) < heap.(!s) then s := l;
    if r < t.heap_len && heap.(r) < heap.(!s) then s := r;
    if !s <> !k then begin
      let tmp = heap.(!s) in
      heap.(!s) <- heap.(!k);
      heap.(!k) <- tmp;
      k := !s
    end
    else sifting := false
  done;
  top

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
   value completes — never before [floor]. The booked cycle is a lower
   bound, not the exact issue cycle: retirement can waive a
   cross-cluster bypass and a bypass can push one cycle past it, so
   [issue_event] re-evaluates [deps_ready] exactly when the
   instruction surfaces. *)
let place t idx ~floor =
  let s = idx land t.slot_mask in
  let deps = t.deps.(s) in
  let k = ref t.dep_lo.(s) in
  let hi = !k + t.dep_n.(s) in
  let at = ref floor in
  let parked = ref false in
  while (not !parked) && !k < hi do
    let d = deps.(!k) in
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
    if !at <= t.cycle then heap_push t idx else book_wakeup t idx ~at:!at
  end

let issue_event t =
  let width = t.config.Config.width in
  let clusters = t.config.Config.clusters in
  let cluster_width = width / clusters in
  let unbounded = t.config.Config.unbounded_issue in
  reset_cycle_budgets t;
  (* Wake this cycle's calendar bucket into the ready heap. *)
  let bucket = t.cycle land calendar_mask in
  let woken = ref t.calendar.(bucket) in
  t.calendar.(bucket) <- -1;
  while !woken >= 0 do
    let idx = !woken in
    woken := t.chain_next.(idx land t.slot_mask);
    let at = t.ready_at.(idx land t.slot_mask) in
    if at <= t.cycle then heap_push t idx else book_wakeup t idx ~at
  done;
  (* Issue oldest-first up to the width limit. A popped instruction
     whose exact readiness check fails re-parks (at most one extra
     wake, for a cross-cluster bypass); one blocked only by a cluster
     or functional-unit budget stays ready in a stash so younger
     instructions of other clusters and classes still get their scan
     turn, exactly as the reference window scan skips over it. *)
  let issued = ref 0 in
  let stash_len = ref 0 in
  let popping = ref true in
  while !popping && t.heap_len > 0 do
    if (not unbounded) && !issued >= width then popping := false
    else begin
      let idx = heap_pop t in
      let s = idx land t.slot_mask in
      if not (deps_ready t s) then place t idx ~floor:(t.cycle + 1)
      else if (unbounded || t.cluster_issued.(t.cluster.(s)) < cluster_width) && fu_available t s
      then begin
        issue_instr t idx ~issued_before:!issued;
        incr issued;
        (* Its value has a completion time now: re-park every consumer
           waiting on this producer (their earliest cycle is past this
           one, so none re-enters this cycle's heap). *)
        let waiter = ref t.waiter_head.(s) in
        t.waiter_head.(s) <- -1;
        while !waiter >= 0 do
          let w = !waiter in
          waiter := t.chain_next.(w land t.slot_mask);
          place t w ~floor:(t.cycle + 1)
        done
      end
      else begin
        t.stash.(!stash_len) <- idx;
        incr stash_len
      end
    end
  done;
  for k = 0 to !stash_len - 1 do
    heap_push t t.stash.(k)
  done;
  t.win_count <- t.win_count - !issued;
  t.issued_this_cycle <- !issued

let issue t = match t.kernel with Scan -> issue_scan t | Event -> issue_event t

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
      (match t.kernel with
      | Scan -> t.window.(t.win_count) <- idx
      | Event ->
          (* Issue runs before dispatch each cycle, so a newly
             dispatched instruction is first eligible next cycle. *)
          place t idx ~floor:(t.cycle + 1));
      t.win_count <- t.win_count + 1;
      decr budget
    end
    else continue_ := false
  done

let fetch t =
  if t.blocking_branch >= 0 && completed t t.blocking_branch then begin
    t.blocking_branch <- -1;
    if t.recording then Fom_util.Int_buffer.push t.resolve_record t.cycle
  end;
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
      if t.pending >= 0 then t.pending <- -1 else decode t idx;
      let s = idx land t.slot_mask in
      let pc = t.pc.(s) in
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
              t.fetch_stall_until <- t.cycle + Hierarchy.inst_stall t.hierarchy outcome;
              t.pending <- idx;
              (* The line is now resident: do not re-probe when the
                 stalled instruction is finally fetched. *)
              false
        end
      in
      if not icache_ok then stopped := true
      else begin
        t.pipe_at.(s) <- t.cycle + t.config.Config.pipeline_depth;
        t.last_fetched <- idx;
        incr fetched;
        if t.op.(s) = branch_tag then begin
          let correct = Predictor.observe t.predictor ~pc ~taken:t.taken.(s) in
          if not correct then begin
            t.mispredictions <- t.mispredictions + 1;
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
  if t.recording then Fom_util.Int_buffer.push t.issue_record t.issued_this_cycle;
  t.occupancy_window_sum <- t.occupancy_window_sum + t.win_count;
  t.occupancy_rob_sum <- t.occupancy_rob_sum + (t.last_dispatched - t.last_retired);
  t.cycle <- t.cycle + 1

let run ?cycle_limit t ~n =
  (* The budget is relative to the current cycle so that a machine can
     be resumed with successive [run] calls. *)
  let limit = t.cycle + Option.value cycle_limit ~default:((250 * n) + 100_000) in
  let target = t.last_retired + n in
  let c0 = t.cycle and r0 = t.last_retired and e0 = t.wake_events in
  Fom_obs.Span.with_ s_run (fun () ->
      while t.last_retired < target do
        if t.cycle > limit then raise Cycle_limit_exceeded;
        step t
      done);
  Fom_obs.Metrics.incr m_runs;
  Fom_obs.Metrics.add m_cycles (t.cycle - c0);
  Fom_obs.Metrics.add m_instructions (t.last_retired - r0);
  Fom_obs.Metrics.add m_events (t.wake_events - e0);
  let mean sum = float_of_int sum /. float_of_int (Stdlib.max 1 t.cycle) in
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
  t.recording <- true;
  Fom_util.Int_buffer.clear t.issue_record;
  Fom_util.Int_buffer.clear t.resolve_record;
  let stats = run ?cycle_limit t ~n in
  t.recording <- false;
  ( stats,
    Fom_util.Int_buffer.contents t.issue_record,
    Fom_util.Int_buffer.contents t.resolve_record )
