module Instr = Fom_isa.Instr
module Latency = Fom_isa.Latency
module Packed = Fom_trace.Packed

let ring_bits = 16
let ring_size = 1 lsl ring_bits
let ring_mask = ring_size - 1

(* Observability (no-ops unless an Fom_obs sink is enabled): one
   [iw.points] tick per IPC evaluation, plus the cycles and
   instructions it simulated. *)
let m_points = Fom_obs.Metrics.counter "iw.points"
let m_cycles = Fom_obs.Metrics.counter "iw.cycles"
let m_instructions = Fom_obs.Metrics.counter "iw.instructions"

let record_point ~cycles ~instructions =
  Fom_obs.Metrics.incr m_points;
  Fom_obs.Metrics.add m_cycles cycles;
  Fom_obs.Metrics.add m_instructions instructions

let check_shape ~window ~n =
  let ensure = Fom_check.Checker.ensure ~code:"FOM-I030" in
  ensure ~path:"iw_sim.window" (window >= 1) "window size must be positive";
  ensure ~path:"iw_sim.n" (n > 0) "instruction count must be positive";
  Fom_check.Checker.ensure ~code:"FOM-I031" ~path:"iw_sim.window" (window <= ring_size)
    (Printf.sprintf
       "window of %d exceeds the %d-entry completion ring; completion lookups would \
        silently alias"
       window ring_size)

let ipc_of_source ?(latencies = Fom_isa.Latency.unit) ?issue_limit source ~window ~n =
  check_shape ~window ~n;
  let next_instr = Fom_trace.Source.fresh source in
  (* Window of unissued instructions in age order. *)
  let win = Array.make window None in
  let count = ref 0 in
  (* Completion times of issued instructions, keyed by index; entries
     older than the ring are certainly complete (slot reuse lags issue
     by [ring_size] instructions, far beyond any latency). *)
  let comp_idx = Array.make ring_size (-1) in
  let comp_time = Array.make ring_size 0 in
  let oldest_unissued = ref 0 in
  let fetched = ref 0 in
  let cycle = ref 0 in
  let issued_total = ref 0 in
  let limit = Option.value issue_limit ~default:max_int in
  let complete d =
    let slot = d land ring_mask in
    if comp_idx.(slot) = d then comp_time.(slot) <= !cycle else d < !oldest_unissued
  in
  let ready (i : Instr.t) =
    let deps = i.Instr.deps in
    let rec check k = k >= Array.length deps || (complete deps.(k) && check (k + 1)) in
    check 0
  in
  while !issued_total < n do
    (* Refill the window to capacity (instant fetch). *)
    while !count < window do
      win.(!count) <- Some (next_instr ());
      incr count;
      incr fetched
    done;
    (* Issue everything ready, oldest first, up to the width limit. *)
    let issued = ref 0 in
    let kept = ref 0 in
    for k = 0 to !count - 1 do
      match win.(k) with
      | None -> Fom_check.Checker.internal_error "window slot empty below count"
      | Some i ->
          if !issued < limit && ready i then begin
            let slot = i.Instr.index land ring_mask in
            comp_idx.(slot) <- i.Instr.index;
            comp_time.(slot) <- !cycle + Latency.of_class latencies i.Instr.opclass;
            incr issued
          end
          else begin
            win.(!kept) <- win.(k);
            incr kept
          end
    done;
    for k = !kept to !count - 1 do
      win.(k) <- None
    done;
    count := !kept;
    (* The oldest unissued instruction is now the window head (the
       window was full before issuing). *)
    (oldest_unissued :=
       match win.(0) with
       | Some i -> i.Instr.index
       | None -> !fetched);
    issued_total := !issued_total + !issued;
    incr cycle
  done;
  record_point ~cycles:!cycle ~instructions:!issued_total;
  float_of_int !issued_total /. float_of_int !cycle

(* Event-driven kernel over a packed trace.

   Instead of rescanning the whole window every cycle, each in-window
   instruction is parked exactly once per blocking event: on a waiter
   chain of one still-unissued producer, or in a calendar bucket for
   the cycle its last producer's result completes. A cycle drains its
   bucket into a min-heap of ready instructions and pops oldest-first
   up to the issue width — O(instructions woken), not O(window).

   Per-cycle issue decisions are order-independent in the reference
   (a result issued at cycle [c] completes at [c + latency >= c + 1],
   so it can never enable a consumer within the same cycle), which is
   what makes this reformulation bit-identical: an instruction's
   earliest issue cycle is exactly [max(admission cycle, max over
   producers of completion time)], and both kernels issue the oldest
   [limit] instructions whose earliest cycle has arrived. *)
let ipc_of_packed ?(latencies = Fom_isa.Latency.unit) ?issue_limit packed ~window ~n =
  check_shape ~window ~n;
  Fom_check.Checker.ensure ~code:"FOM-I033" ~path:"iw_sim.trace"
    (Packed.length packed >= n + window)
    (Printf.sprintf "packed trace of %d instructions is shorter than run length %d plus \
                     window %d" (Packed.length packed) n window);
  let lat = Latency.table latencies in
  let limit = Option.value issue_limit ~default:max_int in
  (* The run fetches fewer than [n + window] instructions: the window
     is refilled to capacity only while fewer than [n] have issued. *)
  let horizon = n + window in
  let tag = packed.Packed.tag in
  let dep_off = packed.Packed.dep_off in
  let dep_val = packed.Packed.dep_val in
  (* Completion cycle per issued instruction; -1 while unissued. *)
  let comp = Array.make horizon (-1) in
  (* Waiter chains: [whead.(p)] heads the list of admitted consumers
     parked on still-unissued producer [p], linked through [wnext]. *)
  let whead = Array.make horizon (-1) in
  let wnext = Array.make horizon (-1) in
  (* Calendar ring of wakeup buckets: bucket [c land cal_mask] chains
     (through [cal_next]) the instructions whose earliest issue cycle
     is [c]. Wakeups land at most [max_latency] cycles ahead, so a
     power-of-two ring comfortably past that never aliases. *)
  let max_latency = Array.fold_left max 1 lat in
  let cal_size =
    let rec grow s = if s >= max_latency + 2 then s else grow (2 * s) in
    grow 8
  in
  let cal_mask = cal_size - 1 in
  let cal = Array.make cal_size (-1) in
  let cal_next = Array.make horizon (-1) in
  (* Min-heap of ready (admitted, all producers complete) unissued
     instructions; ordering by index is issue age order. *)
  let heap = Array.make window 0 in
  let heap_len = ref 0 in
  let heap_push v =
    if !heap_len >= window then Fom_check.Checker.internal_error "issue heap overflow";
    let k = ref !heap_len in
    incr heap_len;
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
  in
  let heap_pop () =
    let top = heap.(0) in
    decr heap_len;
    heap.(0) <- heap.(!heap_len);
    let k = ref 0 in
    let sifting = ref true in
    while !sifting do
      let l = (2 * !k) + 1 and r = (2 * !k) + 2 in
      let s = ref !k in
      if l < !heap_len && heap.(l) < heap.(!s) then s := l;
      if r < !heap_len && heap.(r) < heap.(!s) then s := r;
      if !s <> !k then begin
        let tmp = heap.(!s) in
        heap.(!s) <- heap.(!k);
        heap.(!k) <- tmp;
        k := !s
      end
      else sifting := false
    done;
    top
  in
  let cycle = ref 0 in
  (* Park instruction [w]: chain it on its first still-unissued
     producer, or — every producer issued — resolve its earliest issue
     cycle to [max(floor, latest producer completion)] and either make
     it immediately ready or book a calendar wakeup. *)
  let place w ~floor =
    let hi = dep_off.(w + 1) in
    let k = ref dep_off.(w) in
    let ready = ref floor in
    let parked = ref false in
    while (not !parked) && !k < hi do
      let d = dep_val.(!k) in
      let cd = comp.(d) in
      if cd < 0 then begin
        wnext.(w) <- whead.(d);
        whead.(d) <- w;
        parked := true
      end
      else if cd > !ready then ready := cd;
      incr k
    done;
    if not !parked then begin
      let r = !ready in
      if r <= !cycle then heap_push w
      else begin
        let b = r land cal_mask in
        cal_next.(w) <- cal.(b);
        cal.(b) <- w
      end
    end
  in
  let admitted = ref 0 in
  let issued_total = ref 0 in
  while !issued_total < n do
    (* Refill the window to capacity (instant fetch): a newly admitted
       instruction may issue this very cycle. *)
    while !admitted - !issued_total < window do
      place !admitted ~floor:!cycle;
      incr admitted
    done;
    (* Wake this cycle's calendar bucket. *)
    let b = !cycle land cal_mask in
    let woken = ref cal.(b) in
    cal.(b) <- -1;
    while !woken >= 0 do
      let next = cal_next.(!woken) in
      heap_push !woken;
      woken := next
    done;
    (* Issue ready instructions oldest-first up to the width limit;
       leftovers stay in the heap for later cycles. *)
    let issued = ref 0 in
    while !issued < limit && !heap_len > 0 do
      let w = heap_pop () in
      comp.(w) <- !cycle + lat.(tag.(w));
      incr issued;
      (* Its waiters re-park: on another unissued producer, or into a
         wakeup bucket (their earliest cycle is at least [cycle + 1],
         this result's completion, so none re-enters this cycle's
         issue). *)
      let u = ref whead.(w) in
      whead.(w) <- -1;
      while !u >= 0 do
        let next = wnext.(!u) in
        place !u ~floor:(!cycle + 1);
        u := next
      done
    done;
    issued_total := !issued_total + !issued;
    incr cycle
  done;
  record_point ~cycles:!cycle ~instructions:!issued_total;
  float_of_int !issued_total /. float_of_int !cycle

let ipc ?latencies ?issue_limit program ~window ~n =
  ipc_of_source ?latencies ?issue_limit (Fom_trace.Source.of_program program) ~window ~n
