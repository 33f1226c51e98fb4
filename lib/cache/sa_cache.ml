(* Each set stores [assoc] tags with an age stamp; the LRU victim is
   the smallest stamp. Sets are small (4-way baseline), so linear scans
   beat fancier structures. Tag -1 marks an invalid way. Line size and
   set count are powers of two (see {!Geometry.diagnostics}), so the
   set index and tag are shifts and masks computed once at [create]. *)
type t = {
  assoc : int;
  line_shift : int;
  set_mask : int;
  set_bits : int;
  tags : int array;  (* sets * assoc *)
  stamps : int array;
  mutable clock : int;
}

let log2 n =
  let rec go b = if 1 lsl b >= n then b else go (b + 1) in
  go 0

let create geometry =
  Fom_check.Checker.run_exn (Geometry.diagnostics geometry);
  let sets = Geometry.sets geometry in
  let n = sets * geometry.Geometry.assoc in
  {
    assoc = geometry.Geometry.assoc;
    line_shift = log2 geometry.Geometry.line;
    set_mask = sets - 1;
    set_bits = log2 sets;
    tags = Array.make n (-1);
    stamps = Array.make n 0;
    clock = 0;
  }

(* First way of [addr]'s set. *)
let set_base t addr = ((addr lsr t.line_shift) land t.set_mask) * t.assoc
let tag t addr = (addr lsr t.line_shift) lsr t.set_bits

(* The slot holding [addr]'s line, or -1 on a miss. *)
let find t addr =
  let base = set_base t addr in
  let tag = tag t addr in
  let slot = ref (-1) in
  let way = ref 0 in
  while !slot < 0 && !way < t.assoc do
    if t.tags.(base + !way) = tag then slot := base + !way;
    incr way
  done;
  !slot

let probe t addr = find t addr >= 0

let access t addr =
  t.clock <- t.clock + 1;
  let slot = find t addr in
  if slot >= 0 then begin
    t.stamps.(slot) <- t.clock;
    true
  end
  else begin
    let base = set_base t addr in
    let victim = ref base in
    for way = 1 to t.assoc - 1 do
      if t.stamps.(base + way) < t.stamps.(!victim) then victim := base + way
    done;
    t.tags.(!victim) <- tag t addr;
    t.stamps.(!victim) <- t.clock;
    false
  end
