module Diagnostic = Fom_check.Diagnostic

(* Bump whenever a change to the simulator, analysis kernels or the
   cached value types can alter cached results: the version is folded
   into every digest, so old entries simply stop matching (and are
   reported FOM-E007 when their file is revisited). *)
let code_version = "fom-cache/1:2026-08"

(* Observability (no-ops unless an Fom_obs sink is enabled). Byte
   counters track what actually crossed the filesystem boundary:
   [cache.bytes_read] whole entry files deserialized on a hit,
   [cache.bytes_written] marshaled entries persisted on a miss. *)
let m_hits = Fom_obs.Metrics.counter "cache.hits"
let m_misses = Fom_obs.Metrics.counter "cache.misses"
let m_bytes_read = Fom_obs.Metrics.counter "cache.bytes_read"
let m_bytes_written = Fom_obs.Metrics.counter "cache.bytes_written"
let h_entry_bytes = Fom_obs.Metrics.histogram "cache.entry_bytes"
let s_read = Fom_obs.Span.id "cache.read"
let s_write = Fom_obs.Span.id "cache.write"

type t = {
  dir : string;
  lock : Mutex.t;  (* guards diagnostics and counters *)
  mutable diags : Diagnostic.t list;
  mutable hits : int;
  mutable misses : int;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> ()  (* lost a creation race *)
  end

let create ~dir =
  mkdir_p dir;
  Fom_check.Checker.ensure ~code:"FOM-E006" ~path:"exec.cache.dir"
    (Sys.file_exists dir && Sys.is_directory dir)
    "cache directory could not be created";
  { dir; lock = Mutex.create (); diags = []; hits = 0; misses = 0 }

(* A key part from any marshalable value: configurations here are
   plain records and variants (no closures), and [Marshal] of an
   immutable value is deterministic, so the bytes canonically describe
   the configuration content. A representation change from editing the
   types shows up as a different digest — a miss, never a wrong
   hit. *)
let part v = Marshal.to_string v []

let digest parts =
  Digest.to_hex (Digest.string (String.concat "\x00" (code_version :: parts)))

let entry_path t ~key = Filename.concat t.dir (key ^ ".fomc")

let add_diag t d =
  Mutex.lock t.lock;
  t.diags <- d :: t.diags;
  Mutex.unlock t.lock

let bump t outcome =
  Mutex.lock t.lock;
  (match outcome with
  | `Hit ->
      t.hits <- t.hits + 1;
      Fom_obs.Metrics.incr m_hits
  | `Miss ->
      t.misses <- t.misses + 1;
      Fom_obs.Metrics.incr m_misses);
  Mutex.unlock t.lock

let stats t =
  Mutex.lock t.lock;
  let r = (t.hits, t.misses) in
  Mutex.unlock t.lock;
  r

let drain_diagnostics t =
  Mutex.lock t.lock;
  let ds = List.rev t.diags in
  t.diags <- [];
  Mutex.unlock t.lock;
  ds

let warn ~code ~path message = Diagnostic.make ~severity:Diagnostic.Warning ~code ~path message

let remove_entry path = try Sys.remove path with Sys_error _ -> ()

(* An entry is the pair (header, value) marshaled together, where the
   header is "<code_version>:<key>". The header is checked before the
   value is touched: a mismatch means the entry was written by another
   code version (or a colliding key) and is discarded as stale rather
   than unsafely interpreted. *)
let read t path ~key =
  if not (Sys.file_exists path) then None
  else
    let expected = code_version ^ ":" ^ key in
    match
      Fom_obs.Span.with_ s_read (fun () ->
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              let bytes = in_channel_length ic in
              Fom_obs.Metrics.add m_bytes_read bytes;
              Fom_obs.Metrics.observe h_entry_bytes bytes;
              (Marshal.from_channel ic : string * _)))
    with
    | header, value when String.equal header expected -> Some value
    | _, _ ->
        add_diag t
          (warn ~code:"FOM-E007" ~path:("exec.cache." ^ key)
             (Printf.sprintf
                "stale cache entry %s (written by another code version); recomputing" path));
        remove_entry path;
        None
    | exception exn ->
        add_diag t
          (warn ~code:"FOM-E006" ~path:("exec.cache." ^ key)
             (Printf.sprintf "corrupt cache entry %s (%s); recomputing" path
                (Printexc.to_string exn)));
        remove_entry path;
        None

(* Write via a temp file + rename so concurrent runs sharing a cache
   directory never observe a torn entry; a failed write degrades to a
   warning, never a crash — the value was computed either way. *)
let write t path ~key value =
  match
    Fom_obs.Span.with_ s_write (fun () ->
        let data = Marshal.to_string (code_version ^ ":" ^ key, value) [] in
        Fom_obs.Metrics.add m_bytes_written (String.length data);
        Fom_obs.Metrics.observe h_entry_bytes (String.length data);
        let tmp = Filename.temp_file ~temp_dir:t.dir "entry" ".tmp" in
        let oc = open_out_bin tmp in
        Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc data);
        Sys.rename tmp path)
  with
  | () -> ()
  | exception exn ->
      add_diag t
        (warn ~code:"FOM-E006" ~path:("exec.cache." ^ key)
           (Printf.sprintf "could not persist cache entry %s (%s)" path
              (Printexc.to_string exn)))

let get t ~key compute =
  let path = entry_path t ~key in
  match read t path ~key with
  | Some value ->
      bump t `Hit;
      value
  | None ->
      let value = compute () in
      bump t `Miss;
      write t path ~key value;
      value
