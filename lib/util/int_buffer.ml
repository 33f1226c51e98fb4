type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 64) () =
  Fom_check.Checker.ensure ~code:"FOM-U002" ~path:"int_buffer.capacity" (capacity >= 1)
    "initial capacity must be positive";
  { data = Array.make capacity 0; len = 0 }

let length t = t.len

let push t v =
  let cap = Array.length t.data in
  if t.len = cap then begin
    let grown = Array.make (2 * cap) 0 in
    Array.blit t.data 0 grown 0 t.len;
    t.data <- grown
  end;
  t.data.(t.len) <- v;
  t.len <- t.len + 1

let get t i =
  Fom_check.Checker.ensure ~code:"FOM-U003" ~path:"int_buffer.get" (i >= 0 && i < t.len)
    "index out of bounds";
  t.data.(i)

let contents t = Array.sub t.data 0 t.len
