open Sp_vm

(** The replayer pintool: runs a pinball, optionally with tools
    attached, repeating the captured execution exactly. *)

exception Divergence of string
(** Raised when the replayed execution consumes non-deterministic inputs
    differently from the recorded ones — replay is supposed to be
    deterministic, so this signals a corrupted pinball or a bug. *)

type result = {
  status : Interp.status;
  retired : int;           (** instructions retired during the replay *)
  machine : Interp.machine; (** final machine state *)
}

val replay : ?tools:Hooks.t list -> Pinball.t -> result
(** Restore the snapshot and execute the pinball's interval with the
    recorded inputs injected. *)

val replay_prefixed :
  ?prefix_tools:Hooks.t list ->
  ?tools:Hooks.t list ->
  prefix:int ->
  ?on_region:(unit -> unit) ->
  Pinball.t ->
  result
(** Replay a warm-prefixed regional pinball (see
    {!Logger.capture_warm_regions}): the first [prefix] instructions run
    under [prefix_tools] (the warmup window), then [on_region] fires
    (callers flip their tools' warming flag there), and the remaining
    [length - prefix] instructions run under [tools].  Both runs share
    one machine and one recorded-input cursor, so an input consumed
    inside the prefix is replayed at exactly the position it was
    recorded.  [result.retired] counts the region portion only,
    matching {!replay} of an unprefixed regional pinball.

    @raise Divergence if either portion halts early.
    @raise Invalid_argument if [prefix] is negative, exceeds the
    pinball's length, or the pinball has no length. *)

val recorded_syscall : Pinball.t -> int -> int
(** A stateful handler that plays back the pinball's recorded inputs in
    order; raises {!Divergence} when the recording is exhausted.  Exposed
    for callers that drive the interpreter directly (e.g. the logger's
    fast-forward pass). *)
