(** The interpreter: executes a {!Program.t} against a machine state,
    firing {!Hooks.t} callbacks for instrumentation.

    Execution is resumable: [run] with a [fuel] bound leaves the machine
    at the next unexecuted instruction, so callers (slicers, regional
    replayers) can execute exact instruction intervals. *)

type machine = {
  regs : int array;       (** 16 integer registers; r15 is zero by convention *)
  fregs : float array;    (** 16 FP registers *)
  mutable pc : int;
  callstack : int array;
  mutable sp : int;       (** next free call-stack slot *)
  mem : Memory.t;
  mutable icount : int;   (** instructions retired since creation *)
}

type status =
  | Halted       (** executed a [Halt] *)
  | Out_of_fuel  (** fuel exhausted; machine is resumable *)

val create : ?mem:Memory.t -> entry:int -> unit -> machine
(** Fresh machine with zeroed registers, positioned at [entry]. *)

val default_syscall : int -> int
(** Deterministic syscall used when none is supplied: channel [n] returns
    a fixed hash of [n] — the "recorded input" of a default environment. *)

type engine =
  | Auto
      (** the compiled-block tier for nil and block-level hook sets
          ([on_block_mems] consumers included), the per-instruction
          reference engine when a per-instruction hook is live. *)
  | Reference
      (** pin to the per-instruction engines — the reference the
          conformance suite compares the compiled tier against. *)

val run :
  ?engine:engine ->
  ?hooks:Hooks.t ->
  ?syscall:(int -> int) ->
  ?fuel:int ->
  Program.t ->
  machine ->
  status
(** Execute until [Halt] or until [fuel] instructions have retired.

    [engine] (default [Auto]) picks the engine.  The pin exists for
    differential testing and benchmarking; it never changes observable
    behaviour — both engines retire the same instruction stream, fire
    equivalent hook events and leave bit-identical machine state for
    any fuel split — only how fast it happens.

    Semantics notes: integer division/remainder by zero yields 0 (the
    machine never traps); shift counts are masked to 6 bits; call-stack
    depth is bounded (overflow raises [Stack_error]). *)

exception Stack_error of string
