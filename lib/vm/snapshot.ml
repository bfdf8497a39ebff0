type t = {
  regs : int array;
  fregs : float array;
  pc : int;
  callstack : int array;
  sp : int;
  mem : Memory.t;
  icount : int;
}

(* The snapshot's memory shares the machine's page arrays copy-on-write
   and is fully frozen from construction on: [capture] freezes the
   source machine (its later stores privatise pages), and the snapshot
   itself is never written.  [restore] therefore only reads the
   snapshot, which makes restoring one snapshot from many domains at
   once safe — each restored machine gets its own COW view. *)
let capture (m : Interp.machine) =
  {
    regs = Array.copy m.regs;
    fregs = Array.copy m.fregs;
    pc = m.pc;
    callstack = Array.copy m.callstack;
    sp = m.sp;
    mem = Memory.cow_clone m.mem;
    icount = m.icount;
  }

let restore t : Interp.machine =
  {
    regs = Array.copy t.regs;
    fregs = Array.copy t.fregs;
    pc = t.pc;
    callstack = Array.copy t.callstack;
    sp = t.sp;
    mem = Memory.cow_clone t.mem;
    icount = t.icount;
  }

let icount t = t.icount
let pc t = t.pc
let mem_bytes t = Memory.footprint_bytes t.mem

(* ------------------------------------------------------------------ *)
(* Serialisation (pinball format v2) *)

let write buf t =
  let open Sp_util in
  Binio.w_int_array buf t.regs;
  Binio.w_float_array buf t.fregs;
  Binio.w_i64 buf t.pc;
  Binio.w_int_array buf t.callstack;
  Binio.w_i64 buf t.sp;
  Binio.w_i64 buf t.icount;
  Memory.write buf t.mem

let read ~code_len r =
  let open Sp_util in
  let regs = Binio.r_int_array r in
  if Array.length regs <> Sp_isa.Isa.num_regs then
    Binio.fail "Snapshot: %d integer registers, expected %d"
      (Array.length regs) Sp_isa.Isa.num_regs;
  let fregs = Binio.r_float_array r in
  if Array.length fregs <> Sp_isa.Isa.num_fregs then
    Binio.fail "Snapshot: %d FP registers, expected %d" (Array.length fregs)
      Sp_isa.Isa.num_fregs;
  (* the engines fetch [pc] and every return address unchecked *)
  let pc = Binio.r_i64 r in
  if pc < 0 || pc >= code_len then
    Binio.fail "Snapshot: pc %d outside the %d-instruction program" pc code_len;
  let callstack = Binio.r_int_array r in
  let sp = Binio.r_i64 r in
  if sp < 0 || sp > Array.length callstack then
    Binio.fail "Snapshot: sp %d outside the %d-slot call stack" sp
      (Array.length callstack);
  for i = 0 to sp - 1 do
    let ret = callstack.(i) in
    if ret < 0 || ret >= code_len then
      Binio.fail "Snapshot: return address %d outside the %d-instruction program"
        ret code_len
  done;
  let icount = Binio.r_i64 r in
  if icount < 0 then Binio.fail "Snapshot: negative icount %d" icount;
  let mem = Memory.read r in
  (* freeze eagerly so the first [restore] never mutates the snapshot:
     a decoded pinball may be cached and restored from several domains
     at once *)
  Memory.freeze mem;
  { regs; fregs; pc; callstack; sp; mem; icount }
