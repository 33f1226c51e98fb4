module Checker = Fom_check.Checker

(* Observability (no-ops unless an Fom_obs sink is enabled):
   [memo.computes] counts owned first computations, [memo.joins]
   demands served by an existing cell, and [memo.contention] every
   help-or-sleep iteration a demander spends waiting on another
   domain's in-flight compute. *)
let m_computes = Fom_obs.Metrics.counter "memo.computes"
let m_joins = Fom_obs.Metrics.counter "memo.joins"
let m_contention = Fom_obs.Metrics.counter "memo.contention"
let s_compute = Fom_obs.Span.id "memo.compute"

(* Each key owns a future cell: the first demander claims it (under
   the table lock) and computes outside any lock; later demanders find
   the claimed cell and wait on its condition — helping drain the pool
   between waits — until the owner publishes a result. The compute
   therefore runs exactly once per key per process, no matter how many
   domains demand it concurrently. *)

type 'v state =
  | In_flight of int  (* id of the owning domain *)
  | Done of 'v
  | Failed of exn * Printexc.raw_backtrace

type 'v cell = {
  mutex : Mutex.t;
  cond : Condition.t;
  mutable state : 'v state;
}

type ('k, 'v) t = {
  lock : Mutex.t;  (* guards the table *)
  table : ('k, 'v cell) Hashtbl.t;
  pool : Pool.t option;
}

let create ?pool () = { lock = Mutex.create (); table = Hashtbl.create 64; pool }

let self_id () = (Domain.self () :> int)

let publish cell state =
  Mutex.lock cell.mutex;
  cell.state <- state;
  Condition.broadcast cell.cond;
  Mutex.unlock cell.mutex

(* Wait for another domain's in-flight computation. Between checks the
   waiter helps drain the pool — running the task on top of the pool's
   stack — so a blocked demand costs throughput nothing while work is
   queued; it only sleeps on the cell's condition when the whole pool
   is idle. Progress does not depend on the helping: the owner can
   always finish on its own (a nested map's caller drives its own
   tasks), so a sleeping waiter is woken by the owner's publish at the
   latest. *)
let rec await t cell =
  Mutex.lock cell.mutex;
  match cell.state with
  | Done v ->
      Mutex.unlock cell.mutex;
      v
  | Failed (exn, bt) ->
      Mutex.unlock cell.mutex;
      Printexc.raise_with_backtrace exn bt
  | In_flight owner ->
      Mutex.unlock cell.mutex;
      if owner = self_id () then
        Checker.ensure ~code:"FOM-E005" ~path:"exec.memo" false
          "re-entrant demand: this domain is already computing this key";
      Fom_obs.Metrics.incr m_contention;
      let helped = match t.pool with Some pool -> Pool.help pool | None -> false in
      if not helped then begin
        Mutex.lock cell.mutex;
        (match cell.state with
        | In_flight _ -> Condition.wait cell.cond cell.mutex
        | Done _ | Failed _ -> ());
        Mutex.unlock cell.mutex
      end;
      await t cell

let get t key compute =
  Mutex.lock t.lock;
  let cell, owner =
    match Hashtbl.find_opt t.table key with
    | Some cell -> (cell, false)
    | None ->
        let cell =
          {
            mutex = Mutex.create ();
            cond = Condition.create ();
            state = In_flight (self_id ());
          }
        in
        Hashtbl.add t.table key cell;
        (cell, true)
  in
  Mutex.unlock t.lock;
  if not owner then begin
    Fom_obs.Metrics.incr m_joins;
    await t cell
  end
  else begin
    Fom_obs.Metrics.incr m_computes;
    match Fom_obs.Span.with_ s_compute compute with
    | v ->
        publish cell (Done v);
        v
    | exception exn ->
        let bt = Printexc.get_raw_backtrace () in
        publish cell (Failed (exn, bt));
        Printexc.raise_with_backtrace exn bt
  end
