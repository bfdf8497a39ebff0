open Sp_vm

(** The PinPlay logger: creates Whole Pinballs by running a program
    while recording every non-deterministic input, and carves Regional
    Pinballs out of a Whole Pinball at simulation-point boundaries. *)

type whole = {
  pinball : Pinball.t;
  total_insns : int;    (** dynamic instruction count of the execution *)
}

val log_whole :
  ?syscall:(int -> int) -> ?extra_tools:Hooks.t list -> benchmark:string ->
  Program.t -> whole
(** Execute the program to completion from a fresh machine, recording
    inputs.  [extra_tools] lets callers profile (e.g. collect BBVs)
    during the same pass — logging is the slowest step of the paper's
    pipeline, so piggybacking avoids a second whole-program run. *)

type warm_region = {
  warm_prefix : int;
      (** warmup instructions at the front of [warm_pinball]: the
          effective window, after clamping against the previous region's
          end (and program start) *)
  warm_pinball : Pinball.t;
      (** self-contained [(warmup, region)] pinball of length
          [warm_prefix + point.length], snapshotted [warm_prefix]
          instructions before the point; its recorded inputs cover the
          whole window, including inputs consumed inside the prefix *)
}

val capture_warm_regions :
  warmup_insns:int ->
  whole ->
  Sp_simpoint.Simpoints.point array ->
  warm_region array
(** Replay the whole pinball once, snapshotting the machine [warm_prefix]
    instructions before the start of each simulation point; returns one
    self-contained [(warmup, region)] pinball per point, in the order
    given, replayable with fresh per-point tool state
    ({!Replayer.replay_prefixed}).  The prefix is up to [warmup_insns]
    long, clamped to the gap since the previous point's end and to
    program start.  With [warmup_insns = 0] every prefix is empty and
    each pinball is exactly the point's Regional Pinball — the cold
    Regional Run is this capture with a zero-length prefix.
    @raise Invalid_argument if [warmup_insns] is negative, a point lies
    beyond the execution, or points overlap. *)
