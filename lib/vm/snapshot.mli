(** Architectural-state snapshots: the raw material of Pinballs.

    A snapshot captures everything the interpreter needs to resume an
    execution at an exact dynamic instruction count — registers, PC, call
    stack and the full (sparse) memory image.  Restoring yields a fresh
    machine that replays identically, independent of the machine the
    snapshot was taken from.

    Memory is shared copy-on-write rather than deep-copied: the
    snapshot's image is frozen from construction on, capture freezes
    the source machine's pages (its later writes privatise them), and
    each restore hands out an O(pages) view whose first write to a page
    copies just that page.  Restoring never mutates the snapshot, so
    one snapshot can be restored concurrently from many domains. *)

type t

val capture : Interp.machine -> t

val restore : t -> Interp.machine
(** A fresh machine; logically shares no mutable state with the
    snapshot (memory pages are shared copy-on-write), so a snapshot can
    be restored many times, including concurrently. *)

val icount : t -> int
(** Dynamic instruction count at capture time. *)

val pc : t -> int

val mem_bytes : t -> int
(** Size of the captured memory image. *)

(** {1 Serialisation (pinball format v2)} *)

val write : Buffer.t -> t -> unit
(** Deterministic encoding of the full architectural state. *)

val read : code_len:int -> Sp_util.Binio.reader -> t
(** Decode a snapshot written by {!write}, validating register-file
    sizes, the stack pointer, the memory image, and that the pc and
    every live return address lie in a program of [code_len]
    instructions.
    @raise Sp_util.Binio.Corrupt on malformed input. *)
