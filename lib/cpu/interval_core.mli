open Sp_vm

(** Interval-model out-of-order timing: the abstraction Sniper itself is
    built on.

    The model charges each instruction its dispatch slot
    (1/dispatch-width cycles) and adds penalty *intervals* for the
    events an out-of-order window cannot hide: branch mispredictions
    (from a gshare predictor) and long-latency memory accesses (from a
    timed cache hierarchy).  Miss latency is partially hidden by the
    reorder buffer; consecutive independent misses within the ROB window
    overlap, while pointer-chasing (unpredictable next address) pays the
    full latency — approximated here by address-pattern detection, since
    the hook stream carries no register dependences.

    The hooks are block-level — per-block i-fetch ([on_block]), the
    block's conditional branch ([on_branch]) and one [on_block_mems]
    consumer whose reference offsets give each access's exact
    instruction position — so an attached core runs on the compiled
    tier.  Statistics, floats included, are bit-identical to
    charging every instruction through per-instruction callbacks, under
    any segmentation (fuel splits, engine pins). *)

type stats = {
  instructions : int;
  cycles : float;
  base_cycles : float;
  branch_stall_cycles : float;
  memory_stall_cycles : float;
  branch_lookups : int;
  branch_mispredicts : int;
  level_hits : int array;  (** accesses served per level: L1/L2/L3/Memory *)
}

type t

val create : ?config:Core_config.t -> Program.t -> t

val hooks : t -> Hooks.t

val cpi : t -> float
(** Cycles per instruction so far; 0 before any instruction. *)

val cycles : t -> float
val instructions : t -> int
val stats : t -> stats

val cpi_of_stats : stats -> float
(** {!cpi} recomputed from a {!stats} record — bit-identical to the
    [cpi] of the core that produced it (same formula on the same
    values), for consumers that persist stats and rebuild derived
    figures later. *)

val set_warming : t -> bool -> unit
(** While warming, caches and the predictor train but neither cycles nor
    counters accumulate. *)

val reset_state : t -> unit
(** Back to a freshly created core: statistics, cache, predictor and
    miss-overlap state. *)

val seconds : t -> float
(** Simulated wall-clock time at the configured frequency. *)
