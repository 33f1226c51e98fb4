module Latency = Fom_isa.Latency
module Packed = Fom_trace.Packed

let ring_size = 1 lsl 16

(* Observability (no-ops unless an Fom_obs sink is enabled): one
   [iw.points] tick per IPC evaluation, the cycles and instructions it
   simulated, and which term bound each instruction's issue cycle. *)
let m_points = Fom_obs.Metrics.counter "iw.points"
let m_cycles = Fom_obs.Metrics.counter "iw.cycles"
let m_instructions = Fom_obs.Metrics.counter "iw.instructions"
let m_window = Fom_obs.Metrics.counter "iw.bound.window"
let m_dependence = Fom_obs.Metrics.counter "iw.bound.dependence"
let m_width = Fom_obs.Metrics.counter "iw.bound.width"

let check_shape ?issue_limit ~window ~n () =
  let ensure ~path cond message =
    Fom_check.Checker.ensure ~code:"FOM-I030" ~path cond message
  in
  ensure ~path:"iw_sim.window" (window >= 1) "window size must be positive";
  ensure ~path:"iw_sim.n" (n > 0) "instruction count must be positive";
  Option.iter
    (fun limit -> ensure ~path:"iw_sim.issue_limit" (limit >= 1) "issue limit must be positive")
    issue_limit;
  if window > ring_size then
    Fom_check.Checker.(
      run_exn
        (fail ~code:"FOM-I031" ~path:"iw_sim.window"
           (Printf.sprintf
              "window of %d exceeds the %d-entry cap; the per-cycle issue ring grows with \
               window x (max latency + 1)"
              window ring_size)))

(* The idealized machine as a max-plus recurrence over instructions in
   age order, with no cycle loop.

   Instruction [i] enters the window once [i - window + 1] older
   instructions have issued: at [admit = 1 + floor], where [floor] is
   the [(i - window + 1)]-th smallest issue time so far ([-1] before
   that). It issues at the first cycle [t >= max(admit, completion of
   every producer)] that has fewer than [limit] older issues.
   Oldest-first priority makes this exact: a younger instruction never
   takes an issue slot from an older one, so every count an
   instruction sees is final.

   [cnt] counts issues per cycle in a ring. Every new issue lands above
   [floor], so the counts at or below it never change: [floor] only
   moves forward, adding each cycle's count to [below] and zeroing its
   slot as it passes (amortised O(1) per instruction). Issue times
   above the floor stay within [window * max(latency, 1)] of it: each
   is reached from [floor + 1] by a chain of at most [window]
   in-window instructions. *)
let ipc_of_packed ?(latencies = Latency.unit) ?issue_limit packed ~window ~n =
  check_shape ?issue_limit ~window ~n ();
  if Packed.length packed < n + window then
    Fom_check.Checker.(
      run_exn
        (fail ~code:"FOM-I033" ~path:"iw_sim.trace"
           (Printf.sprintf
              "packed trace of %d instructions is shorter than run length %d plus window %d"
              (Packed.length packed) n window)));
  let lat = Latency.table latencies in
  let limit = Option.value issue_limit ~default:max_int in
  (* The run ends in the cycle its [n]-th issue lands in; instruction
     [n + window - 1] would only be admitted the cycle after. *)
  let count = n + window - 1 in
  let op = packed.Packed.op in
  let dep_off = packed.Packed.dep_off in
  let dep_val = packed.Packed.dep_val in
  let comp = Array.make count 0 in
  let span = (window * (Array.fold_left Int.max 1 lat + 1)) + 2 in
  let size =
    let rec grow s = if s >= span then s else grow (2 * s) in
    grow 8
  in
  let mask = size - 1 in
  let cnt = Array.make size 0 in
  let floor = ref (-1) in
  let below = ref 0 in
  let by_window = ref 0 and by_dependence = ref 0 and by_width = ref 0 in
  for i = 0 to count - 1 do
    while !below < i - window + 1 do
      incr floor;
      let s = !floor land mask in
      below := !below + cnt.(s);
      cnt.(s) <- 0
    done;
    let admit = !floor + 1 in
    let earliest = ref admit in
    for k = dep_off.(i) to dep_off.(i + 1) - 1 do
      let c = comp.(dep_val.(k)) in
      if c > !earliest then earliest := c
    done;
    let e = !earliest in
    let t = ref e in
    while cnt.(!t land mask) >= limit do
      incr t
    done;
    let t = !t in
    if t > !floor + size then Fom_check.Checker.internal_error "issue ring overflow";
    let s = t land mask in
    cnt.(s) <- cnt.(s) + 1;
    comp.(i) <- t + lat.(op.(i));
    if t > e then incr by_width else if e > admit then incr by_dependence else incr by_window
  done;
  while !below < n do
    incr floor;
    below := !below + cnt.(!floor land mask)
  done;
  let cycles = !floor + 1 in
  Fom_obs.Metrics.incr m_points;
  Fom_obs.Metrics.add m_cycles cycles;
  Fom_obs.Metrics.add m_instructions !below;
  Fom_obs.Metrics.add m_window !by_window;
  Fom_obs.Metrics.add m_dependence !by_dependence;
  Fom_obs.Metrics.add m_width !by_width;
  float_of_int !below /. float_of_int cycles
