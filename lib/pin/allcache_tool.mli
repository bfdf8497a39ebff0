open Sp_vm

(** The [allcache] pintool: a functional simulator of the
    instruction+data cache hierarchy (Table I by default), fed by the
    instrumented instruction and data reference streams. *)

type t

val create :
  ?config:Sp_cache.Config.hierarchy ->
  ?policy:Sp_cache.Cache.policy ->
  ?prefetch:bool ->
  Program.t ->
  t
(** The program is needed to turn PCs into instruction-fetch addresses.
    [policy] selects the replacement policy for every level (default
    LRU); [prefetch] enables the hierarchy's next-line prefetcher. *)

val hooks : t -> Hooks.t
(** The hook set: a single {!Hooks.on_block_mems} consumer that replays
    each delivered segment's i-fetch grid and data references in one
    pass, with exact same-line/same-page repeat filters.  The set is
    block-level, so it runs on the compiled tier, one segment per block
    entry; statistics are bit-identical to walking the TLBs and the hierarchy
    once per fetch and data reference (enforced by the differential
    suite against a per-instruction reference model). *)

val hierarchy : t -> Sp_cache.Hierarchy.t

val stats : t -> Sp_cache.Hierarchy.stats

val itlb_stats : t -> Sp_cache.Tlb.stats
(** Instruction-TLB statistics (the [allcache] pintool simulates
    instruction+data TLBs alongside the caches). *)

val dtlb_stats : t -> Sp_cache.Tlb.stats

val set_warming : t -> bool -> unit
(** Forwarded to the hierarchy: accesses update state but not stats. *)

val reset_state : t -> unit
(** Clears cache/TLB contents and the repeat-filter memos
    (which are only valid while the lines they name stay resident). *)
