type kind = Stride of { stride : int } | Random | Chase

type region = { base : int; size : int }

type t = {
  kind : kind;
  region : region;
  rng : Fom_util.Rng.t;
  mutable offset : int;
}

let create ~seed_rng kind region =
  let ensure ~path cond message =
    Fom_check.Checker.ensure ~code:"FOM-T050" ~path cond message
  in
  ensure ~path:"address_gen.region.size"
    (region.size > 0 && region.size mod 8 = 0)
    "region size must be a positive multiple of 8 bytes";
  (match kind with
  | Stride { stride } ->
      ensure ~path:"address_gen.stride" (stride > 0 && stride mod 8 = 0)
        "stride must be a positive multiple of 8 bytes"
  | Random | Chase -> ());
  { kind; region; rng = Fom_util.Rng.split seed_rng; offset = 0 }

let align8 x = x land lnot 7

let next t =
  match t.kind with
  | Stride { stride } ->
      let addr = t.region.base + t.offset in
      t.offset <- (t.offset + stride) mod t.region.size;
      addr
  | Random | Chase ->
      t.region.base + align8 (Fom_util.Rng.int t.rng t.region.size)

