module Iw = Iw_characteristic

type result = { cycles : float; instructions : float; penalty : float }

let max_transient_cycles = 10_000

(* {!Iw.issue_rate}, repeated so that no step allocates: a call into
   another module boxes its float argument and result. The loops keep
   their float accumulators in local refs, which stay unboxed. *)
let[@inline] issue_rate (iw : Iw.t) w =
  if w <= 0.0 then 0.0
  else
    Float.min w
      (Float.min iw.Iw.issue_width (iw.Iw.alpha *. Float.pow w iw.Iw.beta /. iw.Iw.avg_latency))

let drain iw ~window =
  let steady = Iw.steady_state_ipc iw ~window in
  let w = ref (Iw.steady_state_occupancy iw ~window) in
  let cycles = ref 0 and issued = ref 0.0 and stalled = ref false in
  while not (!stalled || !w <= 1.0 || !cycles >= max_transient_cycles) do
    let rate = issue_rate iw !w in
    if rate <= 0.0 then stalled := true
    else begin
      w := !w -. rate;
      incr cycles;
      issued := !issued +. rate
    end
  done;
  let cycles = float_of_int !cycles in
  { cycles; instructions = !issued; penalty = cycles -. (!issued /. steady) }

let ensure ~path cond message = Fom_check.Checker.ensure ~code:"FOM-I030" ~path cond message

(* The relative distance from the steady rate at which the ramp-up's
   asymptotic tail is cut off. *)
let epsilon = 0.1

let ramp_up iw ~window =
  ensure ~path:"transient.ramp_up" (Float.is_finite iw.Iw.issue_width)
    "ramp-up needs a finite issue width";
  let steady = Iw.steady_state_ipc iw ~window in
  let target = (1.0 -. epsilon) *. steady in
  let cap = float_of_int window in
  let w = ref 0.0 and cycles = ref 0 and issued = ref 0.0 in
  let rate = ref (issue_rate iw 0.0) in
  while not (!rate >= target || !cycles >= max_transient_cycles) do
    w := Float.min cap (!w +. iw.Iw.issue_width -. !rate);
    incr cycles;
    issued := !issued +. !rate;
    rate := issue_rate iw !w
  done;
  let cycles = float_of_int !cycles in
  { cycles; instructions = !issued; penalty = cycles -. (!issued /. steady) }

type interval = { ipc : float; issue_per_cycle : float array }

let interval iw ~window ~pipeline_depth ~instructions =
  ensure ~path:"transient.interval" (Float.is_finite iw.Iw.issue_width)
    "interval analysis needs a finite issue width";
  ensure ~path:"transient.interval" (instructions > 0) "instruction count must be positive";
  let cap = float_of_int window in
  let n = float_of_int instructions in
  let trace = ref [] in
  for _ = 1 to pipeline_depth do
    trace := 0.0 :: !trace
  done;
  (* Dispatch runs at the machine width until the interval's
     instructions are all in flight; issue follows the characteristic;
     the tail drains naturally. The cycle cap scales with the work:
     issuing the oldest instruction guarantees progress, so it only
     guards numerically degenerate characteristics. *)
  let cycle_cap = (10 * instructions) + max_transient_cycles in
  let rec loop w dispatched issued cycles =
    if issued >= n -. 1e-9 || cycles >= cycle_cap then cycles
    else
      let rate = Float.min (Iw.issue_rate iw w) (n -. issued) in
      let dispatch = Float.min iw.Iw.issue_width (n -. dispatched) in
      let w = Float.min cap (w +. dispatch -. rate) in
      trace := rate :: !trace;
      loop w (dispatched +. dispatch) (issued +. rate) (cycles + 1)
  in
  let issue_cycles = loop 0.0 0.0 0.0 0 in
  {
    ipc = n /. float_of_int (pipeline_depth + issue_cycles);
    issue_per_cycle = Array.of_list (List.rev !trace);
  }
