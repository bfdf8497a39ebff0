(** Within-cluster variance analysis: reproduces the quantity plotted in
    the paper's Figure 4 — how the average phase-similarity variance
    inside clusters grows as the number of available clusters shrinks. *)

type sweep_point = {
  k : int;
  avg_variance : float;  (** mean over clusters of within-cluster variance *)
}

val sweep :
  ?config:Simpoints.config -> ks:int list -> Sp_pin.Bbv_tool.slice array ->
  sweep_point list
(** Variance at each cluster count in [ks] (Figure 4's x-axis): the
    slices are projected once, then clustered at each k as
    {!Simpoints.cluster} does.  [ks = []] does no work.
    @raise Invalid_argument if [ks] is non-empty and there are no
    slices. *)
