(* The idealized window-limited machine simulated the direct way, as
   the paper describes it: refill the window to capacity, then scan it
   oldest-first every cycle and issue whatever is ready, up to the
   issue limit. O(window) per cycle; the oracle Iw_sim.ipc_of_packed
   is tested against. It decodes the same packing one {!Row.t} at a
   time, so the packing must hold [n + window] instructions. *)

module Latency = Fom_isa.Latency

let ipc_of_packed ?(latencies = Latency.unit) ?issue_limit packed ~window ~n =
  let fetched = ref 0 in
  let next_instr () =
    let ins = Row.decode packed !fetched in
    incr fetched;
    ins
  in
  (* Window of unissued instructions in age order. *)
  let win = Array.make window None in
  let count = ref 0 in
  (* Completion time per issued instruction, keyed by index; -1 while
     unissued. *)
  let comp = Hashtbl.create 4096 in
  let cycle = ref 0 in
  let issued_total = ref 0 in
  let limit = Option.value issue_limit ~default:max_int in
  let ready (i : Row.t) =
    Array.for_all
      (fun d -> match Hashtbl.find_opt comp d with Some c -> c <= !cycle | None -> false)
      i.Row.deps
  in
  while !issued_total < n do
    (* Refill the window to capacity (instant fetch). *)
    while !count < window do
      win.(!count) <- Some (next_instr ());
      incr count
    done;
    (* Issue everything ready, oldest first, up to the width limit. *)
    let issued = ref 0 in
    let kept = ref 0 in
    for k = 0 to !count - 1 do
      match win.(k) with
      | None -> failwith "window slot empty below count"
      | Some i ->
          if !issued < limit && ready i then begin
            Hashtbl.replace comp i.Row.index
              (!cycle + Latency.of_class latencies i.Row.opclass);
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
    issued_total := !issued_total + !issued;
    incr cycle
  done;
  float_of_int !issued_total /. float_of_int !cycle
