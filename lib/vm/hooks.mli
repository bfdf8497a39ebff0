(** Instrumentation hooks: the VM-side half of the Pin-style API.

    The interpreter invokes these callbacks while executing; the
    {!Sp_pin} framework builds hook records out of pintools.  Callbacks
    are plain (non-labelled) closures so the dispatch cost in the
    interpreter's hot loop stays at one indirect call each. *)

type t = {
  on_block : int -> unit;
      (** block id, at entry (through the leader) to each dynamic basic
          block *)
  on_block_exec : int -> int -> unit;
      (** [bb, n]: [n] instructions of block [bb] retired.  The count is
          an aggregate — the block-stepping engine delivers a whole
          block entry at once (possibly truncated at a fuel boundary or
          started mid-block on resume), the per-instruction engine
          delivers [n = 1] per retirement.  Tools attached here must
          depend only on the multiplicity, never on instruction
          position; both deliveries then produce bit-identical results. *)
  on_block_span : int -> int -> unit;
      (** [pc0, n]: [n] consecutive instructions starting at pc [pc0]
          retired.  The positional sibling of [on_block_exec]: spans
          partition the retirement stream exactly (block engines deliver
          at most one span per block entry — truncated at a fuel
          boundary, started mid-block on resume — per-instruction
          engines deliver [n = 1] spans), so a tool can classify every
          retired instruction against the static program (kind, memory
          class) without per-instruction dispatch.  Tools must be
          insensitive to how the stream is batched into spans; all
          engines then produce bit-identical results.  Still a
          block-level aggregate: a live callback here keeps the set
          eligible for block-stepping. *)
  on_block_mems : int -> int -> int array -> int array -> int -> unit;
      (** [pc0, n, offs, addrs, nrefs]: an aggregate of [n] consecutive
          retired instructions starting at [pc0], carrying all of their
          data references at once.  [offs.(r)] (for [r < nrefs]) is the
          instruction index of reference [r] relative to [pc0], in
          retirement order; [addrs.(r)] encodes its byte address [a] and
          direction as [(a lsl 1) lor w] with [w = 1] for a write
          ([a = addrs.(r) asr 1] recovers the address).  Segments
          partition the retirement stream exactly — the fused
          block-stepping engine delivers at most one segment per block
          entry (splitting around [Sys] instructions so a raising
          syscall handler still observes every earlier reference), the
          per-instruction engine delivers [n = 1] segments.  The arrays
          are reused between calls: callbacks must consume them before
          returning and only read the first [nrefs] entries. *)
  on_instr : int -> int -> unit;
      (** [pc, kind_code] for every retired instruction *)
  on_read : int -> unit;  (** data byte address of each memory read *)
  on_write : int -> unit;  (** data byte address of each memory write *)
  on_branch : int -> bool -> unit;
      (** [pc, taken] for every conditional branch *)
}

val nil : t
(** No-op hooks; the interpreter runs at full speed. *)

val is_nil : t -> bool
(** [is_nil h] is true when every callback of [h] is a no-op.  All
    constructors in this module preserve the no-op sentinels, so the
    interpreter can test this once per run and skip hook dispatch in
    its inner loop entirely. *)

val block_level : t -> bool
(** [block_level h] is true when every per-instruction callback
    ([on_instr], [on_read], [on_write]) is a no-op.  The remaining
    callbacks all fire at most once per basic block, so the interpreter
    may run such a hook set on its block-stepping engine: hook dispatch
    once per block entry, straight-line execution in between.
    [on_block_mems] is itself a per-block aggregate, so a live callback
    there keeps the set block-level (the interpreter picks its fused
    engine). *)

val has_block_mems : t -> bool
(** True when the [on_block_mems] aggregate is live; decides
    between the plain block-stepping engine and the fused one (and, for
    per-instruction sets, whether single-instruction segments must be
    delivered). *)

val seq : t -> t -> t
(** Run both hook sets, first argument first. *)

val seq_all : t list -> t
(** Run every hook set, in list order.  Unlike a fold of {!seq}, the
    chain is flattened: each callback field dispatches through one flat
    closure over the live (non-no-op) callbacks rather than a tree of
    nested pair closures. *)
