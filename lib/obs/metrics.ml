(* Counter cells are plain atomics; the registry (name -> cell) is the
   only locked structure and is touched on registration and snapshot,
   never on update. *)

type counter = int Atomic.t

let lock = Mutex.create ()
let registry : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter name =
  Mutex.lock lock;
  let cell =
    match Hashtbl.find_opt registry name with
    | Some c -> c
    | None ->
        let c = Atomic.make 0 in
        Hashtbl.add registry name c;
        c
  in
  Mutex.unlock lock;
  cell

let add c n = if Gate.is_on () then ignore (Atomic.fetch_and_add c n)
let incr c = add c 1

type snapshot = { counters : (string * int) list }

let snapshot () =
  Mutex.lock lock;
  let counters = Hashtbl.fold (fun name c acc -> (name, Atomic.get c) :: acc) registry [] in
  Mutex.unlock lock;
  { counters = List.sort (fun (a, _) (b, _) -> String.compare a b) counters }

let reset () =
  Mutex.lock lock;
  Hashtbl.iter (fun _ c -> Atomic.set c 0) registry;
  Mutex.unlock lock
