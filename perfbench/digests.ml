(* Stored digests of layer outputs. Each checked call names its output
   with a key that is the same in every pass and for every seed (the
   seed only reorders the work), and the digest of the marshalled
   output must match the one stored under that key in
   perfbench/digests/<workload>.txt. A change to simulated or modelled
   results therefore fails the call it changes.

   In recording mode ([main.exe --write-digests]) every check passes
   and the digests seen are written out instead. *)

type t = {
  expected : (string, string) Hashtbl.t option;  (** None while recording *)
  seen : (string, string) Hashtbl.t;
  lock : Mutex.t;
}

let file workload = Filename.concat "perfbench/digests" (workload ^ ".txt")

(* The first 64 bits of the MD5 are plenty to notice a change. *)
let of_value v =
  String.sub (Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))) 0 16

let recording () = { expected = None; seen = Hashtbl.create 1024; lock = Mutex.create () }

(* A missing file leaves the table empty, so every check fails. *)
let load path =
  let expected = Hashtbl.create 1024 in
  (if Sys.file_exists path then
     In_channel.with_open_text path In_channel.input_all
     |> String.split_on_char '\n'
     |> List.iter (fun line ->
            match String.split_on_char ' ' line with
            | [ key; digest ] -> Hashtbl.replace expected key digest
            | _ -> ()));
  { expected = Some expected; seen = Hashtbl.create 1; lock = Mutex.create () }

let check t key digest =
  match t.expected with
  | Some expected -> Hashtbl.find_opt expected key = Some digest
  | None ->
      Mutex.protect t.lock (fun () -> Hashtbl.replace t.seen key digest);
      true

let write t path =
  let lines =
    Hashtbl.fold (fun key digest acc -> (key ^ " " ^ digest) :: acc) t.seen []
    |> List.sort String.compare
  in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) lines);
  List.length lines
