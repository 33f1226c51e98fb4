(** Partitioned issue windows / clustered functional units (paper
    Section 7, item 3) — first-order model adjustment.

    With [k] round-robin clusters, a consumer lands in its producer's
    cluster with probability [1/k], so each dependence edge pays the
    one-cycle bypass with probability [(k-1)/k]. To first order this
    lengthens every dependence chain like extra instruction latency,
    so it folds into the Little's-law term: with one dependence per
    instruction, the effective mean latency grows by [(k-1)/k]
    cycles. Per-cluster width and window sizes are unchanged in
    aggregate (k clusters of width/k each), so only the latency
    correction applies at this order. *)

val effective_characteristic :
  clusters:int -> Iw_characteristic.t -> Iw_characteristic.t
(** The characteristic with the clustering latency folded into its
    mean latency. [clusters = 1] is the identity. *)
