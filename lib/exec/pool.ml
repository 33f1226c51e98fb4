module Checker = Fom_check.Checker
module Diagnostic = Fom_check.Diagnostic

(* Observability (no-ops unless an Fom_obs sink is enabled): scheduler
   counters and a span around every task body so a trace shows which
   domain ran what. *)
let m_tasks = Fom_obs.Metrics.counter "pool.tasks"
let m_helps = Fom_obs.Metrics.counter "pool.helps"
let m_idle = Fom_obs.Metrics.counter "pool.idle_waits"
let s_task = Fom_obs.Span.id "pool.task"

let run_task task =
  Fom_obs.Metrics.incr m_tasks;
  Fom_obs.Span.with_ s_task task

(* Tasks on the stack are pre-wrapped closures that never raise: every
   per-task exception is captured into the caller's result array
   before the closure returns. One stack under one mutex is enough —
   a task is a detailed simulation or an IW-curve point costing
   milliseconds to seconds, so lock traffic is noise — and popping the
   top runs the newest work first, so a nested map's subtasks run
   before the tasks that spawned them. *)
type t = {
  domains : int;  (* participating domains, the caller's included *)
  mutex : Mutex.t;  (* guards tasks and stopped *)
  tasks : (unit -> unit) Stack.t;
  activity : Condition.t;  (* work arrived, a batch completed, or shutdown *)
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
}

let recommended_domain_count () = Domain.recommended_domain_count ()

(* The FOM_JOBS environment variable, parsed but not validated: [None]
   when unset or blank, [Some (Ok jobs)] for a positive integer,
   [Some (Error d)] with a FOM-E001 diagnostic otherwise. *)
let env_jobs () =
  match Sys.getenv_opt "FOM_JOBS" with
  | None -> None
  | Some s -> (
      match String.trim s with
      | "" -> None
      | trimmed -> (
          match int_of_string_opt trimmed with
          | Some jobs when jobs >= 1 -> Some (Ok jobs)
          | Some _ | None ->
              Some
                (Error
                   (Diagnostic.make ~code:"FOM-E001" ~path:"exec.FOM_JOBS"
                      (Printf.sprintf
                         "FOM_JOBS=%S is not a positive integer; set a worker count of 1 \
                          or more (or unset it to use the machine's core count)"
                         s)))))

let oversubscription_warning jobs =
  let recommended = recommended_domain_count () in
  if jobs > recommended then
    [
      Diagnostic.make ~severity:Diagnostic.Warning ~code:"FOM-E004" ~path:"exec.jobs"
        (Printf.sprintf
           "%d worker domains oversubscribe this machine (%d recommended); the \
            pool caps the domains it actually runs at the recommended count, so \
            results are unchanged but expect no further speedup"
           jobs recommended);
    ]
  else []

(* Harness-facing resolution: never raises. An invalid request — an
   explicit non-positive [?requested] count or a malformed/non-positive
   FOM_JOBS — yields a safe sequential fallback of 1 worker alongside
   an error-severity FOM-E001 diagnostic, so `fom check` folds it into
   its report (and exits 1) and the bench prints it and aborts, instead
   of the old behavior of an uncaught exception mid-startup. *)
let resolve_jobs ?requested () =
  match requested with
  | None -> (
      match env_jobs () with
      | None -> (recommended_domain_count (), [])
      | Some (Ok jobs) -> (jobs, oversubscription_warning jobs)
      | Some (Error d) -> (1, [ d ]))
  | Some jobs ->
      if jobs < 1 then
        ( 1,
          [
            Diagnostic.make ~code:"FOM-E001" ~path:"exec.jobs"
              (Printf.sprintf "requested worker count %d is not a positive integer" jobs);
          ] )
      else (jobs, oversubscription_warning jobs)

let rec worker_loop t =
  Mutex.lock t.mutex;
  let rec next () =
    match Stack.pop_opt t.tasks with
    | Some task ->
        Mutex.unlock t.mutex;
        run_task task;
        worker_loop t
    | None ->
        if t.stopped then Mutex.unlock t.mutex
        else begin
          Fom_obs.Metrics.incr m_idle;
          Condition.wait t.activity t.mutex;
          next ()
        end
  in
  next ()

let create ?jobs ?domains () =
  let jobs =
    match jobs with
    | Some j -> j
    | None ->
        (* A bad FOM_JOBS raises; oversubscription is only a warning. *)
        let j, diags = resolve_jobs () in
        Checker.run_exn diags;
        j
  in
  Checker.ensure ~code:"FOM-E001" ~path:"exec.jobs" (jobs >= 1)
    "worker count must be at least 1";
  (* Run at most the recommended number of domains: extra domains on a
     saturated machine only add stop-the-world GC synchronization and
     timeslice thrash (the classic ~0.5x "speedup" of oversubscribed
     OCaml 5 pools). [?domains] lets tests force true multi-domain
     execution even on a single-core machine. *)
  let domains =
    match domains with
    | Some d ->
        Checker.ensure ~code:"FOM-E001" ~path:"exec.domains" (d >= 1)
          "domain count must be at least 1";
        d
    | None -> Int.max 1 (Int.min jobs (recommended_domain_count ()))
  in
  let t =
    {
      domains;
      mutex = Mutex.create ();
      tasks = Stack.create ();
      activity = Condition.create ();
      stopped = false;
      workers = [];
    }
  in
  (* The creating domain participates by driving its own maps; only
     the remaining domains - 1 run as spawned workers. *)
  t.workers <- List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let domains t = t.domains

let shutdown t =
  Mutex.lock t.mutex;
  let workers = t.workers in
  t.stopped <- true;
  t.workers <- [];
  Condition.broadcast t.activity;
  Mutex.unlock t.mutex;
  List.iter Domain.join workers

let with_pool ?jobs ?domains f =
  let t = create ?jobs ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let help t =
  Mutex.lock t.mutex;
  match Stack.pop_opt t.tasks with
  | Some task ->
      Mutex.unlock t.mutex;
      Fom_obs.Metrics.incr m_helps;
      run_task task;
      true
  | None ->
      Mutex.unlock t.mutex;
      false

(* Push the batch with task 0 on top, then drive from the calling
   domain until the batch has completed. The driver runs whatever is
   on top, nested maps included, so a waiting caller never sleeps
   while work of its own batch is runnable — that is what keeps nested
   maps deadlock-free, even on one domain.

   The batch floor: the driver pops only while the stack is taller
   than it was before the push. Nothing is removed from the middle of
   the stack, so everything above [base] is this batch or work pushed
   after it. Without the floor, a domain computing a Memo cell could
   pop an older outer task that demands the same key and fail it with
   a false re-entrant-demand FOM-E005; the floor also bounds how much
   work nests on one domain's call stack. *)
let run_tasks t tasks =
  let remaining = ref (Array.length tasks) in
  let wrap task () =
    task ();
    Mutex.lock t.mutex;
    decr remaining;
    if !remaining = 0 then Condition.broadcast t.activity;
    Mutex.unlock t.mutex
  in
  Mutex.lock t.mutex;
  if t.stopped then begin
    Mutex.unlock t.mutex;
    Checker.ensure ~code:"FOM-E003" ~path:"exec.map" false
      "pool was used after shutdown"
  end;
  let base = Stack.length t.tasks in
  for index = Array.length tasks - 1 downto 0 do
    Stack.push (wrap tasks.(index)) t.tasks
  done;
  Condition.broadcast t.activity;
  let rec drive () =
    if !remaining > 0 then
      if Stack.length t.tasks > base then begin
        let task = Stack.pop t.tasks in
        Mutex.unlock t.mutex;
        run_task task;
        Mutex.lock t.mutex;
        drive ()
      end
      else begin
        (* The rest of this batch is running on other domains. *)
        Condition.wait t.activity t.mutex;
        drive ()
      end
  in
  drive ();
  Mutex.unlock t.mutex

(* Re-root a failed task's own diagnostics under its task index so a
   batch report says which task produced which problem. *)
let reroot index ds =
  List.map
    (fun (d : Diagnostic.t) ->
      Diagnostic.make ~severity:d.Diagnostic.severity ~code:d.Diagnostic.code
        ~path:(Printf.sprintf "exec.task[%d].%s" index d.Diagnostic.path)
        d.Diagnostic.message)
    ds

let capture ~f ~results items index =
  results.(index) <-
    (match f items.(index) with
    | v -> Ok v
    | exception Checker.Invalid ds -> Error (reroot index ds)
    | exception exn ->
        Error
          [
            Diagnostic.make ~code:"FOM-E002"
              ~path:(Printf.sprintf "exec.task[%d]" index)
              (Printexc.to_string exn);
          ])

let try_map (type b) t ~(f : _ -> b) items =
  let items = Array.of_list items in
  let n = Array.length items in
  let results : (b, Diagnostic.t list) result array =
    Array.make n (Error [])
  in
  (* Results are delivered by index, so task order is preserved no
     matter which domain ran what: one domain stays bit-identical to
     [N]. *)
  run_tasks t (Array.init n (fun index () -> capture ~f ~results items index));
  Array.to_list results

let map t ~f items =
  let results = try_map t ~f items in
  let failures =
    List.concat_map (function Error ds -> ds | Ok _ -> []) results
  in
  if failures <> [] then raise (Checker.Invalid failures);
  List.map
    (function
      | Ok v -> v
      | Error _ -> Checker.internal_error "failed task survived the failure check")
    results
