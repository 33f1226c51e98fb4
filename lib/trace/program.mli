(** Static synthetic programs.

    [generate] builds an immutable control-flow graph from a
    {!Config.t}: regions of basic blocks, each block a run of body
    instructions closed by a control instruction. Internal branch
    edges only go forward within a region; the region's last block
    carries the loop back-edge, and jump terminators transfer to other
    regions. This guarantees the dynamic walk always makes progress
    while exercising loops, forward branches and far control transfers.

    The program carries no mutable state: address generators and branch
    behaviours are stored as specifications and instantiated per
    {!Stream}, so independent consumers of the same program observe
    identical traces. *)

type static = {
  uid : int;  (** index into the flat static-instruction array *)
  pc : int;  (** byte address, 4 bytes past the previous uid's *)
  opclass : Fom_isa.Opclass.t;
  nsrc : int;  (** dependences to sample per dynamic instance *)
  agen_spec : (Address_gen.kind * Address_gen.region) option;
  behavior_spec : Branch_behavior.kind option;
  chase : bool;  (** serialized on its own previous dynamic instance *)
}

type block = {
  first : int;  (** uid of the first instruction *)
  len : int;  (** instructions including the terminator *)
  taken_succ : int;  (** successor block id on taken *)
  fall_succ : int;  (** successor block id on fall-through *)
}

type t = private {
  config : Config.t;
  statics : static array;
  blocks : block array;
  distances : Fom_util.Rng.distances;
      (** the dependence-distance law of [config.deps], tabulated once *)
}

val generate : Config.t -> t
(** Deterministic in [config.seed]. *)

val entry : t -> int
(** Entry block id (0). *)

val static_count : t -> int

