(* Trace rows as records, for tests. The library holds a trace only as
   packed columns (op, pc, ea, dep_off, dep_val); tests build
   hand-made traces and read packings row by row through this module:
   [source] encodes rows into a recorded source's columns, [decode]
   reads a row of a packing back, wrapping past its end exactly as
   the recorded writer does, and [of_cursor] reads the generator's
   step cursor. *)

module Opclass = Fom_isa.Opclass
module Packed = Fom_trace.Packed
module Source = Fom_trace.Source
module Stream = Fom_trace.Stream

type ctrl = { target : int; taken : bool }

type t = {
  index : int;  (** dynamic index, from 0 *)
  pc : int;
  opclass : Opclass.t;
  deps : int array;  (** dynamic indices of the true producers *)
  mem : int option;  (** a memory operation's address *)
  ctrl : ctrl option;  (** a control operation's direction and target *)
}

let make ~index ~pc ~opclass ?(deps = [||]) ?mem ?ctrl () = { index; pc; opclass; deps; mem; ctrl }

(* The [ea] column's encoding of [mem] and [ctrl]. The column holds
   one of them, so a row with both is a mistake in the test. *)
let ea r =
  match (r.mem, r.ctrl) with
  | Some addr, None -> addr
  | None, Some c -> (c.target lsl 1) lor Bool.to_int c.taken
  | None, None -> -1
  | Some _, Some _ -> invalid_arg "Row.ea: an address and a direction on one row"

(* A recorded source replaying [rows] in order; indices are implicit,
   so the rows' own [index] fields are not read. *)
let source ?label rows =
  let dep_off = Array.make (Array.length rows + 1) 0 in
  Array.iteri (fun i r -> dep_off.(i + 1) <- dep_off.(i) + Array.length r.deps) rows;
  Source.of_columns ?label
    {
      Source.op = Array.map (fun r -> Opclass.to_int r.opclass) rows;
      pc = Array.map (fun r -> r.pc) rows;
      ea = Array.map ea rows;
      dep_off;
      dep_val = Array.concat (Array.to_list (Array.map (fun r -> r.deps) rows));
    }

let of_fields ~index ~tag ~pc ~ea deps =
  let opclass = Opclass.of_int tag in
  {
    index;
    pc;
    opclass;
    deps;
    mem = (if Opclass.is_memory opclass then Some ea else None);
    ctrl =
      (if Opclass.is_control opclass then Some { target = ea lsr 1; taken = ea land 1 = 1 }
       else None);
  }

(* Row [i] of a packing; past its end the packing wraps with re-based
   indices and dependences, like a recorded source. *)
let decode (p : Packed.t) i =
  let off = i mod p.Packed.len in
  let rebase = i - off in
  let lo = p.dep_off.(off) and hi = p.dep_off.(off + 1) in
  of_fields ~index:i ~tag:p.op.(off) ~pc:p.pc.(off) ~ea:p.ea.(off)
    (Array.init (hi - lo) (fun k -> p.dep_val.(lo + k) + rebase))

(* The first [n] rows of a packing, wrapping past its end. *)
let take p ~n = Array.init n (decode p)

(* The instruction a stream's last step produced, as row [index]. *)
let of_cursor ~index (c : Stream.cursor) =
  of_fields ~index ~tag:c.Stream.tag ~pc:c.pc ~ea:c.ea (Array.sub c.deps 0 c.ndeps)

(* One line per row: index, pc, class, then the address or the
   direction and target. *)
let pp fmt r =
  Format.fprintf fmt "#%d pc=0x%x %s" r.index r.pc (Opclass.to_string r.opclass);
  Option.iter (fun a -> Format.fprintf fmt " [0x%x]" a) r.mem;
  Option.iter
    (fun c -> Format.fprintf fmt " %s->0x%x" (if c.taken then "T" else "N") c.target)
    r.ctrl
