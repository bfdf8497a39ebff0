open Sp_vm

(** Per-slice CPI recording on top of an {!Interval_core}: the timer
    drives execution as one fuel-bounded {!Interp.run} per slice and
    reads the core's cycles between runs, so each slice holds exactly
    its own instructions' cycles — a CPI time-series aligned with the
    BBV slicing, used by the systematic-sampling comparison and the
    time-varying-behaviour study. *)

type t

val create : slice_len:int -> Interval_core.t -> t

val run :
  ?tools:Hooks.t list ->
  ?syscall:(int -> int) ->
  ?fuel:int ->
  t ->
  Program.t ->
  Interp.machine ->
  Interp.status
(** {!Interp.run} with [tools] and then the core's hooks attached,
    closing a slice every [slice_len] retired instructions; a slice
    left open by [fuel] continues on the next call. *)

val finish : t -> unit
(** Close the trailing partial slice (if at least half a slice long). *)

val slice_cpis : t -> float array
(** CPI of each completed slice, in execution order. *)
