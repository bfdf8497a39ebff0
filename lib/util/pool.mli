(** A fixed-size domain pool for embarrassingly parallel batches.

    The pipeline's hot loops (suite fan-out, regional replays,
    k-means assignment) are all independent-job batches; this module
    runs them across OCaml 5 domains while keeping results in input
    order, so [jobs = 1] and [jobs = N] are observationally identical.

    Parallel calls issued from {e inside} a pool worker run
    sequentially instead of nesting domains, so composed fan-outs
    (suite over benchmarks, replays within a benchmark) never
    oversubscribe the machine.

    Observability: every batch records [pool.batches], [pool.tasks],
    [pool.domains_spawned] and a [pool.domain_busy_seconds] histogram
    in {!Sp_obs.Metrics}.  All pool metrics are registered unstable —
    their values legitimately vary with [jobs]. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count () - 1], at least 1 — one core is
    left for the coordinating domain. *)

val parallel_map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map ~jobs f arr] is [Array.map f arr] computed on up to
    [jobs] domains.  Results are returned in input order.  Falls back
    to plain sequential [Array.map] when [jobs <= 1], the array has at
    most one element, or the caller is itself a pool worker.  If a
    worker raises, the first exception is re-raised on the calling
    domain after all workers have been joined.  [jobs] defaults to
    {!default_jobs}. *)

val parallel_for : ?jobs:int -> ?chunks:int -> n:int -> (int -> int -> unit) -> unit
(** [parallel_for ~jobs ~chunks ~n body] splits [0, n) into [chunks]
    contiguous ranges and runs [body lo hi] for each, in parallel on up
    to [jobs] domains.  Chunk boundaries depend only on [n] and
    [chunks] (never on [jobs]), so per-chunk accumulations reduce
    identically for every job count.  [chunks] defaults to [4 * jobs]. *)

val chunk_bounds : chunks:int -> n:int -> (int * int) array
(** The [(lo, hi)] ranges {!parallel_for} would use; exposed for
    callers that reduce per-chunk partial results themselves. *)
