(** Simulation-point selection: the SimPoint methodology end-to-end.

    Input: the per-slice Basic Block Vectors of a whole execution.
    Output: a set of representative slices (simulation points), each
    with the weight of its phase (cluster population share), plus the
    clustering metadata the experiments inspect. *)

type config = {
  max_k : int;          (** maximum number of clusters (paper: 35) *)
  proj_dim : int;       (** random-projection dimensionality (15) *)
  bic_threshold : float;(** BIC range fraction for choosing k (0.7 here; see simpoints.ml) *)
  kmeans_iters : int;   (** Lloyd iteration cap *)
  sample_cap : int;     (** max slices used to fit centroids; the full
                            set is always assigned and weighted *)
  seed : int;           (** master seed for projection and seeding *)
  jobs : int;           (** domain-pool width for k-means and the BIC
                            sweep (1 = sequential; results are
                            identical for every value) *)
}

val default_config : config

type point = {
  cluster : int;
  slice_index : int;    (** index of the representative slice *)
  start_icount : int;   (** dynamic-instruction offset of that slice *)
  length : int;         (** slice length in instructions *)
  weight : float;       (** fraction of all slices in this cluster *)
}

type t = {
  config : config;
  slice_len : int;
  num_slices : int;
  chosen_k : int;
  points : point array;     (** one per non-empty cluster, by cluster id *)
  assignment : int array;   (** cluster id per slice *)
  bic_curve : (int * float) list; (** (k, BIC) at each evaluated k *)
}

val select : ?config:config -> ?projected:float array array ->
  slice_len:int -> Sp_pin.Bbv_tool.slice array -> t
(** Run projection, the BIC-guided search for k, and representative
    selection.  [projected] short-circuits the projection step with a
    precomputed matrix (it must be the deterministic
    {!Projection.project} of [slices] under [config]; the {!Sampler}
    driver uses this to project once and share the matrix across
    sampler implementations without changing any result).
    @raise Invalid_argument if there are no slices. *)

val select_with_k : ?config:config -> ?projected:float array array ->
  slice_len:int -> k:int -> Sp_pin.Bbv_tool.slice array -> t
(** Like {!select} but with a forced cluster count. *)

val cluster : config -> k:int -> float array array -> Kmeans.result
(** The fit {!select} computes at [k]: k-means seeded by
    [config.seed + k] on the {!subsample} of the projected slices, then
    every slice assigned to its nearest (sample-fitted) centroid. *)

val subsample : int -> 'a array -> 'a array
(** [subsample cap xs] is [xs] when it has at most [cap] elements, and
    otherwise [cap] elements picked by the exact integer stride
    [i * n / cap] — indices strictly increasing, in bounds, with the
    last pick falling inside the final stride.  (Used to bound the
    k-means fitting set; exposed for the property tests.) *)

val reduce : t -> coverage:float -> point array
(** Highest-weight points whose cumulative weight reaches [coverage]
    (e.g. 0.9 for the paper's "90th percentile" runs), sorted by
    descending weight. *)

val total_weight : point array -> float

val by_start : point array -> point array
(** A copy of the points sorted by [start_icount]: execution order, the
    order regional replays report their points in. *)

val pp_point : Format.formatter -> point -> unit
