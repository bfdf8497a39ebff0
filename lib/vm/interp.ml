open Sp_isa

type machine = {
  regs : int array;
  fregs : float array;
  mutable pc : int;
  callstack : int array;
  mutable sp : int;
  mem : Memory.t;
  mutable icount : int;
}

type status = Halted | Out_of_fuel

exception Stack_error of string

let stack_depth = 4096

let create ?mem ~entry () =
  let mem = match mem with Some m -> m | None -> Memory.create () in
  {
    regs = Array.make Isa.num_regs 0;
    fregs = Array.make Isa.num_fregs 0.0;
    pc = entry;
    callstack = Array.make stack_depth 0;
    sp = 0;
    mem;
    icount = 0;
  }

let default_syscall n = Sp_util.Rng.hash_string (string_of_int n) land 0xFFFF

(* Execution metrics, flushed once per [run] (and once per engine loop
   for block counts) so the hot loops stay untouched.  Instruction and
   TLB-refill totals are pure functions of the retired work and are
   registered stable; per-tier run counts depend on which pipeline path
   drove the interpreter, so they are not. *)
module M = struct
  let instructions = Sp_obs.Metrics.counter "vm.instructions"
  let tlb_refills = Sp_obs.Metrics.counter "vm.tlb_refills"
  let blocks = Sp_obs.Metrics.counter "vm.blocks_stepped"
  let runs_plain = Sp_obs.Metrics.counter ~stable:false "vm.runs.plain"
  let runs_hooked = Sp_obs.Metrics.counter ~stable:false "vm.runs.hooked"
  let runs_compiled = Sp_obs.Metrics.counter ~stable:false "vm.runs.compiled"
end

let exec_alu op a b =
  match (op : Isa.alu_op) with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then 0 else a / b
  | Rem -> if b = 0 then 0 else a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl (b land 63)
  | Shr -> a lsr (b land 63)

let exec_falu op a b =
  match (op : Isa.falu_op) with
  | Fadd -> a +. b
  | Fsub -> a -. b
  | Fmul -> a *. b
  | Fdiv -> if b = 0.0 then 0.0 else a /. b

let eval_cond c a b =
  match (c : Isa.cond) with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b

(* The uninstrumented fast path: the same walk as [run_reference] below
   with every hook site deleted.  Replay fast-forwarding (region
   capture, warmup positioning) spends billions of instructions here,
   so the duplication buys a loop with zero closure calls — keep the
   two copies in lockstep when touching either. *)
let run_plain ~syscall ~fuel (prog : Program.t) (m : machine) =
  let instrs = prog.instrs in
  let regs = m.regs in
  let fregs = m.fregs in
  let mem = m.mem in
  let remaining = ref fuel in
  let status = ref Out_of_fuel in
  let running = ref (fuel > 0) in
  while !running do
    let pc = m.pc in
    m.icount <- m.icount + 1;
    decr remaining;
    (match Array.unsafe_get instrs pc with
    | Alu (op, rd, r1, r2) ->
        Array.unsafe_set regs rd
          (exec_alu op (Array.unsafe_get regs r1) (Array.unsafe_get regs r2));
        m.pc <- pc + 1
    | Alui (op, rd, r1, imm) ->
        Array.unsafe_set regs rd (exec_alu op (Array.unsafe_get regs r1) imm);
        m.pc <- pc + 1
    | Li (rd, imm) ->
        Array.unsafe_set regs rd imm;
        m.pc <- pc + 1
    | Mov (rd, rs) ->
        Array.unsafe_set regs rd (Array.unsafe_get regs rs);
        m.pc <- pc + 1
    | Load (rd, rs, off) ->
        let a = Array.unsafe_get regs rs + off in
        Array.unsafe_set regs rd (Memory.load mem a);
        m.pc <- pc + 1
    | Store (rv, rb, off) ->
        let a = Array.unsafe_get regs rb + off in
        Memory.store mem a (Array.unsafe_get regs rv);
        m.pc <- pc + 1
    | Movs (rdst, rsrc) ->
        let src = Array.unsafe_get regs rsrc in
        let dst = Array.unsafe_get regs rdst in
        Memory.store mem dst (Memory.load mem src);
        m.pc <- pc + 1
    | Falu (op, fd, f1, f2) ->
        Array.unsafe_set fregs fd
          (exec_falu op (Array.unsafe_get fregs f1) (Array.unsafe_get fregs f2));
        m.pc <- pc + 1
    | Fload (fd, rs, off) ->
        let a = Array.unsafe_get regs rs + off in
        Array.unsafe_set fregs fd (Memory.loadf mem a);
        m.pc <- pc + 1
    | Fstore (fv, rb, off) ->
        let a = Array.unsafe_get regs rb + off in
        Memory.storef mem a (Array.unsafe_get fregs fv);
        m.pc <- pc + 1
    | Fmovi (fd, x) ->
        Array.unsafe_set fregs fd x;
        m.pc <- pc + 1
    | Cvtif (fd, rs) ->
        Array.unsafe_set fregs fd (float_of_int (Array.unsafe_get regs rs));
        m.pc <- pc + 1
    | Cvtfi (rd, fs) ->
        Array.unsafe_set regs rd (int_of_float (Array.unsafe_get fregs fs));
        m.pc <- pc + 1
    | Branch (c, r1, r2, target) ->
        let taken =
          eval_cond c (Array.unsafe_get regs r1) (Array.unsafe_get regs r2)
        in
        m.pc <- (if taken then target else pc + 1)
    | Jump target -> m.pc <- target
    | Call target ->
        if m.sp >= stack_depth then
          raise (Stack_error (Printf.sprintf "call-stack overflow at pc %d" pc));
        m.callstack.(m.sp) <- pc + 1;
        m.sp <- m.sp + 1;
        m.pc <- target
    | Ret ->
        if m.sp <= 0 then
          raise (Stack_error (Printf.sprintf "ret on empty stack at pc %d" pc));
        m.sp <- m.sp - 1;
        m.pc <- m.callstack.(m.sp)
    | Sys (n, rd) ->
        Array.unsafe_set regs rd (syscall n);
        m.pc <- pc + 1
    | Halt ->
        status := Halted;
        running := false);
    if !remaining <= 0 then running := false
  done;
  !status
[@@inline never]

(* The per-instruction reference engine: every hook fires per
   retirement, in program order, with no batching — the engine the
   conformance suite checks the compiled tier against, and the one that
   runs hook sets with live per-instruction callbacks.  Each callback's
   liveness is tested once per run, so an absent hook costs one
   predictable branch per site.

   Aggregate deliveries are the finest the contracts allow:
   [on_block_exec] and [on_block_span] carry [n = 1], and
   [on_block_mems] gets one single-instruction segment per retirement,
   delivered before the instruction's effect — so a raising syscall
   handler or a [Call]/[Ret] stack error leaves a segment tool having
   seen the faulting instruction, as on the compiled tier.

   [vm.blocks_stepped] counts what a block-at-a-time walk of the same
   run would: the run's first instruction plus each leader entered
   after it. *)
let run_reference ~hooks ~syscall ~fuel (prog : Program.t) (m : machine) =
  let instrs = prog.instrs in
  let kinds = prog.kinds in
  let is_leader = prog.is_leader in
  let bb_of_pc = prog.bb_of_pc in
  let regs = m.regs in
  let fregs = m.fregs in
  let mem = m.mem in
  let nil = Hooks.nil in
  let on_block = hooks.Hooks.on_block in
  let has_block = on_block != nil.Hooks.on_block in
  let on_block_exec = hooks.Hooks.on_block_exec in
  let has_block_exec = on_block_exec != nil.Hooks.on_block_exec in
  let on_block_span = hooks.Hooks.on_block_span in
  let has_span = on_block_span != nil.Hooks.on_block_span in
  let on_block_mems = hooks.Hooks.on_block_mems in
  let has_mems = on_block_mems != nil.Hooks.on_block_mems in
  let on_instr = hooks.Hooks.on_instr in
  let has_instr = on_instr != nil.Hooks.on_instr in
  let on_read = hooks.Hooks.on_read in
  let has_read = on_read != nil.Hooks.on_read in
  let on_write = hooks.Hooks.on_write in
  let has_write = on_write != nil.Hooks.on_write in
  let on_branch = hooks.Hooks.on_branch in
  let has_branch = on_branch != nil.Hooks.on_branch in
  (* single-instruction segments: every offset is 0, at most two refs *)
  let offs = Array.make 2 0 in
  let addrs = Array.make 2 0 in
  let remaining = ref fuel in
  let status = ref Out_of_fuel in
  let running = ref (fuel > 0) in
  let blocks =
    ref (if fuel > 0 && not (Array.unsafe_get is_leader m.pc) then 1 else 0)
  in
  while !running do
    let pc = m.pc in
    if Array.unsafe_get is_leader pc then begin
      incr blocks;
      if has_block then on_block (Array.unsafe_get bb_of_pc pc)
    end;
    if has_block_exec then on_block_exec (Array.unsafe_get bb_of_pc pc) 1;
    if has_span then on_block_span pc 1;
    if has_instr then on_instr pc (Array.unsafe_get kinds pc);
    m.icount <- m.icount + 1;
    decr remaining;
    let instr = Array.unsafe_get instrs pc in
    if has_mems then begin
      (* addresses depend only on registers: collect them before the
         effect, then deliver *)
      let nrefs =
        match instr with
        | Load (_, rs, off) | Fload (_, rs, off) ->
            Array.unsafe_set addrs 0 ((Array.unsafe_get regs rs + off) lsl 1);
            1
        | Store (_, rb, off) | Fstore (_, rb, off) ->
            Array.unsafe_set addrs 0
              (((Array.unsafe_get regs rb + off) lsl 1) lor 1);
            1
        | Movs (rdst, rsrc) ->
            Array.unsafe_set addrs 0 (Array.unsafe_get regs rsrc lsl 1);
            Array.unsafe_set addrs 1 ((Array.unsafe_get regs rdst lsl 1) lor 1);
            2
        | _ -> 0
      in
      on_block_mems pc 1 offs addrs nrefs
    end;
    (match instr with
    | Alu (op, rd, r1, r2) ->
        Array.unsafe_set regs rd
          (exec_alu op (Array.unsafe_get regs r1) (Array.unsafe_get regs r2));
        m.pc <- pc + 1
    | Alui (op, rd, r1, imm) ->
        Array.unsafe_set regs rd (exec_alu op (Array.unsafe_get regs r1) imm);
        m.pc <- pc + 1
    | Li (rd, imm) ->
        Array.unsafe_set regs rd imm;
        m.pc <- pc + 1
    | Mov (rd, rs) ->
        Array.unsafe_set regs rd (Array.unsafe_get regs rs);
        m.pc <- pc + 1
    | Load (rd, rs, off) ->
        let a = Array.unsafe_get regs rs + off in
        if has_read then on_read a;
        Array.unsafe_set regs rd (Memory.load mem a);
        m.pc <- pc + 1
    | Store (rv, rb, off) ->
        let a = Array.unsafe_get regs rb + off in
        if has_write then on_write a;
        Memory.store mem a (Array.unsafe_get regs rv);
        m.pc <- pc + 1
    | Movs (rdst, rsrc) ->
        let src = Array.unsafe_get regs rsrc in
        let dst = Array.unsafe_get regs rdst in
        if has_read then on_read src;
        if has_write then on_write dst;
        Memory.store mem dst (Memory.load mem src);
        m.pc <- pc + 1
    | Falu (op, fd, f1, f2) ->
        Array.unsafe_set fregs fd
          (exec_falu op (Array.unsafe_get fregs f1) (Array.unsafe_get fregs f2));
        m.pc <- pc + 1
    | Fload (fd, rs, off) ->
        let a = Array.unsafe_get regs rs + off in
        if has_read then on_read a;
        Array.unsafe_set fregs fd (Memory.loadf mem a);
        m.pc <- pc + 1
    | Fstore (fv, rb, off) ->
        let a = Array.unsafe_get regs rb + off in
        if has_write then on_write a;
        Memory.storef mem a (Array.unsafe_get fregs fv);
        m.pc <- pc + 1
    | Fmovi (fd, x) ->
        Array.unsafe_set fregs fd x;
        m.pc <- pc + 1
    | Cvtif (fd, rs) ->
        Array.unsafe_set fregs fd (float_of_int (Array.unsafe_get regs rs));
        m.pc <- pc + 1
    | Cvtfi (rd, fs) ->
        Array.unsafe_set regs rd (int_of_float (Array.unsafe_get fregs fs));
        m.pc <- pc + 1
    | Branch (c, r1, r2, target) ->
        let taken =
          eval_cond c (Array.unsafe_get regs r1) (Array.unsafe_get regs r2)
        in
        if has_branch then on_branch pc taken;
        m.pc <- (if taken then target else pc + 1)
    | Jump target -> m.pc <- target
    | Call target ->
        if m.sp >= stack_depth then
          raise (Stack_error (Printf.sprintf "call-stack overflow at pc %d" pc));
        m.callstack.(m.sp) <- pc + 1;
        m.sp <- m.sp + 1;
        m.pc <- target
    | Ret ->
        if m.sp <= 0 then
          raise (Stack_error (Printf.sprintf "ret on empty stack at pc %d" pc));
        m.sp <- m.sp - 1;
        m.pc <- m.callstack.(m.sp)
    | Sys (n, rd) ->
        Array.unsafe_set regs rd (syscall n);
        m.pc <- pc + 1
    | Halt ->
        status := Halted;
        running := false);
    if !remaining <= 0 then running := false
  done;
  Sp_obs.Metrics.add M.blocks !blocks;
  !status
[@@inline never]

(* ------------------------------------------------------------------ *)
(* The compiled tier.

   A pre-compilation pass walks the program once and turns every basic
   block into a chain of straight-line OCaml closures: one closure per
   instruction, each performing its effect on the raw machine arrays
   and tail-calling the next.  Executing a block is then one indirect
   call per instruction with no opcode decode, no per-instruction fuel
   check and no pc bookkeeping — the pc is implicit in which closure is
   running and is only materialised where an engine contract requires
   it (syscalls, stack errors, chain exits).  Unconditional terminators
   with a forward static target ([Jump]/[Call]/fallthrough into the
   next leader) chain directly into the target block's closure, fusing
   superblocks; forward-only chaining makes the closure graph a DAG, so
   compilation in decreasing pc order always finds its continuations
   already built, and [max_chain_insns] bounds how much fuel a single
   dispatch can consume.

   Compiled closures are built once per program and shared across runs,
   so they cannot capture any per-run state: machine, syscall handler
   and hooks travel in a [cenv] handed to every closure.

   Contracts kept in lockstep with the reference engine:
   - hook events: each block's closure chain starts with a prologue
     firing [on_block]/[on_block_exec]/[on_block_span] once per block
     entry; mid-block resume entries fire the partial aggregates
     without [on_block];
   - [m.icount] is bulk-advanced for the whole chain at dispatch, and
     every [Sys] closure rolls it back to the exact per-instruction
     value (the remainder of its chain is a compile-time constant), so
     pinball syscall logging stays tier-independent; a [Call] overflow
     rolls back the same way before raising;
   - fuel: a chain is dispatched only when the remaining fuel covers it
     entirely; otherwise the run tail is delegated to the reference
     engine (or the plain tier when nothing is hooked), which lands the
     fuel boundary on exactly the same instruction with identical
     machine state.

   Data-reference segments, when [on_block_mems] is live (the per-run
   [c_collect] flag; nil and profile runs share the same closures and
   skip every collection site):
   - segments partition the retirement stream: every retired
     instruction belongs to exactly one segment, in order, and a
     segment never spans two blocks.  A block's prologue (or a
     mid-block resume entry) opens one at its own pc; memory closures
     append [(pc - c_seg, addr lsl 1 lor write)] into per-run buffers
     of [2 * max_block_len] entries (a [Movs] reads, then writes);
   - a [Sys] flushes the segment through itself *before* its handler
     runs — a raising handler must leave the tool having seen the
     syscall's fetch — and reopens it at [pc + 1], or closes it when
     the [Sys] ends its block, so no empty segment is ever delivered;
   - every other segment is flushed at its block boundary, before any
     later event: a [Branch] flushes before [on_branch], a [Call]/[Ret]
     stack error flushes before raising (the tool ends one instruction
     ahead of the machine), and a chained [Jump]/[Call]/fallthrough
     leaves the flush to the next block's prologue, a chain exit to the
     dispatcher.  No flush adds a closure call: each check is folded
     into a closure that runs anyway. *)

type cenv = {
  cm : machine;
  cregs : int array;
  cfregs : float array;
  cmem : Memory.t;
  csyscall : int -> int;
  c_block : int -> unit;
  c_block_exec : int -> int -> unit;
  c_span : int -> int -> unit;
  c_branch : int -> bool -> unit;
  c_mems : int -> int -> int array -> int array -> int -> unit;
  c_hooked : bool;
  c_collect : bool;
  c_offs : int array;
  c_addrs : int array;
  mutable c_nrefs : int;
  mutable c_seg : int;  (* first pc of the open segment *)
  mutable c_seg_last : int;  (* last pc of its block *)
  mutable c_open : bool;  (* a segment awaits delivery *)
  mutable c_halted : bool;
}

let open_segment e pc last =
  e.c_seg <- pc;
  e.c_seg_last <- last;
  e.c_nrefs <- 0;
  e.c_open <- true

(* deliver the open segment up to and including [last] *)
let flush_segment e last =
  let s = e.c_seg in
  e.c_mems s (last - s + 1) e.c_offs e.c_addrs e.c_nrefs

let close_segment e =
  e.c_open <- false;
  flush_segment e e.c_seg_last

let[@inline] record e pc x =
  let r = e.c_nrefs in
  Array.unsafe_set e.c_offs r (pc - e.c_seg);
  Array.unsafe_set e.c_addrs r x;
  e.c_nrefs <- r + 1

type compiled = {
  entry_code : (cenv -> unit) array;
      (* per pc: closure executing from pc to the end of its chain *)
  entry_len : int array;
      (* instructions the chain from pc retires (all-or-nothing) *)
  entry_blocks : int array;
      (* block entries the chain from pc makes, for [M.blocks] *)
}

(* Upper bound on the instructions one chain dispatch may retire.
   Chains are all-or-nothing against the remaining fuel, so this also
   bounds how early the dispatcher must hand a run's tail to the
   interpreted fallback. *)
let max_chain_insns = 1024

(* One non-control instruction: perform the effect, tail-call [next].
   [clen_next] is the number of instructions the rest of the chain
   retires after this one — the compile-time icount rollback a [Sys]
   needs to expose the exact per-instruction count to its handler;
   [last] says the instruction ends its block. *)
let compile_straight pc (i : Isa.instr) ~(next : cenv -> unit) ~clen_next
    ~last : cenv -> unit =
  match i with
  | Alu (op, rd, r1, r2) -> (
      match (op : Isa.alu_op) with
      | Add ->
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd
              (Array.unsafe_get regs r1 + Array.unsafe_get regs r2);
            next e
      | Sub ->
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd
              (Array.unsafe_get regs r1 - Array.unsafe_get regs r2);
            next e
      | Mul ->
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd
              (Array.unsafe_get regs r1 * Array.unsafe_get regs r2);
            next e
      | Div ->
          fun e ->
            let regs = e.cregs in
            let b = Array.unsafe_get regs r2 in
            Array.unsafe_set regs rd
              (if b = 0 then 0 else Array.unsafe_get regs r1 / b);
            next e
      | Rem ->
          fun e ->
            let regs = e.cregs in
            let b = Array.unsafe_get regs r2 in
            Array.unsafe_set regs rd
              (if b = 0 then 0 else Array.unsafe_get regs r1 mod b);
            next e
      | And ->
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd
              (Array.unsafe_get regs r1 land Array.unsafe_get regs r2);
            next e
      | Or ->
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd
              (Array.unsafe_get regs r1 lor Array.unsafe_get regs r2);
            next e
      | Xor ->
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd
              (Array.unsafe_get regs r1 lxor Array.unsafe_get regs r2);
            next e
      | Shl ->
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd
              (Array.unsafe_get regs r1 lsl (Array.unsafe_get regs r2 land 63));
            next e
      | Shr ->
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd
              (Array.unsafe_get regs r1 lsr (Array.unsafe_get regs r2 land 63));
            next e)
  | Alui (op, rd, r1, imm) -> (
      match (op : Isa.alu_op) with
      | Add ->
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd (Array.unsafe_get regs r1 + imm);
            next e
      | Sub ->
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd (Array.unsafe_get regs r1 - imm);
            next e
      | Mul ->
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd (Array.unsafe_get regs r1 * imm);
            next e
      | Div ->
          let z = imm = 0 in
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd
              (if z then 0 else Array.unsafe_get regs r1 / imm);
            next e
      | Rem ->
          let z = imm = 0 in
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd
              (if z then 0 else Array.unsafe_get regs r1 mod imm);
            next e
      | And ->
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd (Array.unsafe_get regs r1 land imm);
            next e
      | Or ->
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd (Array.unsafe_get regs r1 lor imm);
            next e
      | Xor ->
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd (Array.unsafe_get regs r1 lxor imm);
            next e
      | Shl ->
          let s = imm land 63 in
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd (Array.unsafe_get regs r1 lsl s);
            next e
      | Shr ->
          let s = imm land 63 in
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd (Array.unsafe_get regs r1 lsr s);
            next e)
  | Li (rd, imm) ->
      fun e ->
        Array.unsafe_set e.cregs rd imm;
        next e
  | Mov (rd, rs) ->
      fun e ->
        let regs = e.cregs in
        Array.unsafe_set regs rd (Array.unsafe_get regs rs);
        next e
  | Load (rd, rs, off) ->
      fun e ->
        let regs = e.cregs in
        let a = Array.unsafe_get regs rs + off in
        if e.c_collect then record e pc (a lsl 1);
        Array.unsafe_set regs rd (Memory.load e.cmem a);
        next e
  | Store (rv, rb, off) ->
      fun e ->
        let regs = e.cregs in
        let a = Array.unsafe_get regs rb + off in
        if e.c_collect then record e pc ((a lsl 1) lor 1);
        Memory.store e.cmem a (Array.unsafe_get regs rv);
        next e
  | Movs (rdst, rsrc) ->
      fun e ->
        let regs = e.cregs in
        let mem = e.cmem in
        let src = Array.unsafe_get regs rsrc in
        let dst = Array.unsafe_get regs rdst in
        if e.c_collect then begin
          record e pc (src lsl 1);
          record e pc ((dst lsl 1) lor 1)
        end;
        Memory.store mem dst (Memory.load mem src);
        next e
  | Falu (op, fd, f1, f2) -> (
      match (op : Isa.falu_op) with
      | Fadd ->
          fun e ->
            let fregs = e.cfregs in
            Array.unsafe_set fregs fd
              (Array.unsafe_get fregs f1 +. Array.unsafe_get fregs f2);
            next e
      | Fsub ->
          fun e ->
            let fregs = e.cfregs in
            Array.unsafe_set fregs fd
              (Array.unsafe_get fregs f1 -. Array.unsafe_get fregs f2);
            next e
      | Fmul ->
          fun e ->
            let fregs = e.cfregs in
            Array.unsafe_set fregs fd
              (Array.unsafe_get fregs f1 *. Array.unsafe_get fregs f2);
            next e
      | Fdiv ->
          fun e ->
            let fregs = e.cfregs in
            let b = Array.unsafe_get fregs f2 in
            Array.unsafe_set fregs fd
              (if b = 0.0 then 0.0 else Array.unsafe_get fregs f1 /. b);
            next e)
  | Fload (fd, rs, off) ->
      fun e ->
        let a = Array.unsafe_get e.cregs rs + off in
        if e.c_collect then record e pc (a lsl 1);
        Array.unsafe_set e.cfregs fd (Memory.loadf e.cmem a);
        next e
  | Fstore (fv, rb, off) ->
      fun e ->
        let a = Array.unsafe_get e.cregs rb + off in
        if e.c_collect then record e pc ((a lsl 1) lor 1);
        Memory.storef e.cmem a (Array.unsafe_get e.cfregs fv);
        next e
  | Fmovi (fd, x) ->
      fun e ->
        Array.unsafe_set e.cfregs fd x;
        next e
  | Cvtif (fd, rs) ->
      fun e ->
        Array.unsafe_set e.cfregs fd
          (float_of_int (Array.unsafe_get e.cregs rs));
        next e
  | Cvtfi (rd, fs) ->
      fun e ->
        Array.unsafe_set e.cregs rd
          (int_of_float (Array.unsafe_get e.cfregs fs));
        next e
  | Sys (num, rd) ->
      let rb = clen_next in
      fun e ->
        if e.c_collect then
          if last then close_segment e
          else begin
            flush_segment e pc;
            open_segment e (pc + 1) e.c_seg_last
          end;
        (* expose the exact retirement index and pc to the handler: the
           chain's bulk advance overshoots by the statically known
           remainder [rb] *)
        let m = e.cm in
        let bulk = m.icount in
        m.icount <- bulk - rb;
        m.pc <- pc;
        Array.unsafe_set e.cregs rd (e.csyscall num);
        m.icount <- bulk;
        next e
  | Branch _ | Jump _ | Call _ | Ret | Halt ->
      (* control instructions are compiled by the terminator pass *)
      assert false

let[@inline] branch_event e pc taken =
  if e.c_open then close_segment e;
  e.c_branch pc taken

let compile_branch pc c r1 r2 target : cenv -> unit =
  let next_pc = pc + 1 in
  match (c : Isa.cond) with
  | Eq ->
      fun e ->
        let regs = e.cregs in
        let taken = Array.unsafe_get regs r1 = Array.unsafe_get regs r2 in
        if e.c_hooked then branch_event e pc taken;
        e.cm.pc <- (if taken then target else next_pc)
  | Ne ->
      fun e ->
        let regs = e.cregs in
        let taken = Array.unsafe_get regs r1 <> Array.unsafe_get regs r2 in
        if e.c_hooked then branch_event e pc taken;
        e.cm.pc <- (if taken then target else next_pc)
  | Lt ->
      fun e ->
        let regs = e.cregs in
        let taken = Array.unsafe_get regs r1 < Array.unsafe_get regs r2 in
        if e.c_hooked then branch_event e pc taken;
        e.cm.pc <- (if taken then target else next_pc)
  | Le ->
      fun e ->
        let regs = e.cregs in
        let taken = Array.unsafe_get regs r1 <= Array.unsafe_get regs r2 in
        if e.c_hooked then branch_event e pc taken;
        e.cm.pc <- (if taken then target else next_pc)
  | Gt ->
      fun e ->
        let regs = e.cregs in
        let taken = Array.unsafe_get regs r1 > Array.unsafe_get regs r2 in
        if e.c_hooked then branch_event e pc taken;
        e.cm.pc <- (if taken then target else next_pc)
  | Ge ->
      fun e ->
        let regs = e.cregs in
        let taken = Array.unsafe_get regs r1 >= Array.unsafe_get regs r2 in
        if e.c_hooked then branch_event e pc taken;
        e.cm.pc <- (if taken then target else next_pc)

let compile (prog : Program.t) : compiled =
  let instrs = prog.instrs in
  let n = Array.length instrs in
  let blocks = prog.blocks in
  let bb_of_pc = prog.bb_of_pc in
  let nblocks = Array.length blocks in
  let unreachable (_ : cenv) = assert false in
  (* [code.(pc)]: closure for the in-chain continuation at [pc] — block
     leaders carry their hook prologue, body pcs do not, so a chain
     link into a leader fires the next block's events exactly like a
     fresh block entry.  [entry_code.(pc)] is what the dispatcher
     calls: the same closure for leaders, a partial-aggregate wrapper
     for mid-block resume points.  Every program ends in a [Halt],
     [Jump] or [Ret] ([Program.of_instrs]), so no chain runs off the
     end. *)
  let code : (cenv -> unit) array = Array.make n unreachable in
  let entry_code : (cenv -> unit) array = Array.make n unreachable in
  let clen = Array.make n 0 in
  let entry_blocks = Array.make n 0 in
  (* dynamic block entries made by a chain entering block [b] *)
  let blocks_from = Array.make nblocks 1 in
  (* Decreasing block order: every chain target (strictly beyond the
     current terminator) is already compiled and wrapped. *)
  for b = nblocks - 1 downto 0 do
    let blk = blocks.(b) in
    let start = blk.Program.start_pc in
    let len = blk.Program.len in
    let term_pc = start + len - 1 in
    let chainable t = t > term_pc && len + clen.(t) <= max_chain_insns in
    let chain t =
      clen.(term_pc) <- 1 + clen.(t);
      blocks_from.(b) <- 1 + blocks_from.(bb_of_pc.(t))
    in
    (match instrs.(term_pc) with
    | Branch (c, r1, r2, target) ->
        code.(term_pc) <- compile_branch term_pc c r1 r2 target;
        clen.(term_pc) <- 1
    | Jump target ->
        if chainable target then begin
          (* the jump's only effect is the pc change the chain link
             makes implicit: compile it to the target's closure *)
          code.(term_pc) <- code.(target);
          chain target
        end
        else begin
          code.(term_pc) <- (fun e -> e.cm.pc <- target);
          clen.(term_pc) <- 1
        end
    | Call target ->
        let ret_pc = term_pc + 1 in
        let chained = chainable target in
        (* overflow leaves the machine at the call, with the chain's
           bulk icount advance beyond it rolled back *)
        let rb = if chained then clen.(target) else 0 in
        let overflow e =
          let m = e.cm in
          m.icount <- m.icount - rb;
          m.pc <- term_pc;
          if e.c_open then close_segment e;
          raise
            (Stack_error (Printf.sprintf "call-stack overflow at pc %d" term_pc))
        in
        if chained then begin
          let tgt = code.(target) in
          code.(term_pc) <-
            (fun e ->
              let m = e.cm in
              if m.sp >= stack_depth then overflow e;
              m.callstack.(m.sp) <- ret_pc;
              m.sp <- m.sp + 1;
              tgt e);
          chain target
        end
        else begin
          code.(term_pc) <-
            (fun e ->
              let m = e.cm in
              if m.sp >= stack_depth then overflow e;
              m.callstack.(m.sp) <- ret_pc;
              m.sp <- m.sp + 1;
              m.pc <- target);
          clen.(term_pc) <- 1
        end
    | Ret ->
        code.(term_pc) <-
          (fun e ->
            let m = e.cm in
            if m.sp <= 0 then begin
              m.pc <- term_pc;
              if e.c_open then close_segment e;
              raise
                (Stack_error
                   (Printf.sprintf "ret on empty stack at pc %d" term_pc))
            end;
            m.sp <- m.sp - 1;
            m.pc <- m.callstack.(m.sp));
        clen.(term_pc) <- 1
    | Halt ->
        code.(term_pc) <-
          (fun e ->
            e.cm.pc <- term_pc;
            e.c_halted <- true);
        clen.(term_pc) <- 1
    | i ->
        (* fallthrough terminator: a non-control instruction whose
           successor is a leader *)
        let succ = term_pc + 1 in
        if chainable succ then begin
          code.(term_pc) <-
            compile_straight term_pc i ~next:code.(succ) ~clen_next:clen.(succ)
              ~last:true;
          chain succ
        end
        else begin
          code.(term_pc) <-
            compile_straight term_pc i
              ~next:(fun e -> e.cm.pc <- succ)
              ~clen_next:0 ~last:true;
          clen.(term_pc) <- 1
        end);
    for pc = term_pc - 1 downto start do
      code.(pc) <-
        compile_straight pc instrs.(pc) ~next:code.(pc + 1)
          ~clen_next:clen.(pc + 1) ~last:false;
      clen.(pc) <- 1 + clen.(pc + 1)
    done;
    (* leader prologue: deliver the segment a chain link left open,
       open this block's, fire the block's events, then the straight
       body *)
    let plain_start = code.(start) in
    code.(start) <-
      (fun e ->
        if e.c_hooked then begin
          if e.c_collect then begin
            if e.c_open then close_segment e;
            open_segment e start term_pc
          end;
          e.c_block b;
          e.c_block_exec b len;
          e.c_span start len
        end;
        plain_start e);
    entry_code.(start) <- code.(start);
    entry_blocks.(start) <- blocks_from.(b);
    (* mid-block resume entries: partial aggregates, no [on_block] *)
    for pc = start + 1 to term_pc do
      let npart = term_pc + 1 - pc in
      let body = code.(pc) in
      entry_code.(pc) <-
        (fun e ->
          if e.c_hooked then begin
            if e.c_collect then open_segment e pc term_pc;
            e.c_block_exec b npart;
            e.c_span pc npart
          end;
          body e);
      entry_blocks.(pc) <- blocks_from.(b)
    done
  done;
  { entry_code; entry_len = clen; entry_blocks }

(* Per-domain cache of compiled programs, keyed by physical identity of
   the [Program.t].  Compilation is deterministic and self-contained,
   so worker domains compile independently instead of sharing (no locks
   on the replay hot path); the bound only guards against unbounded
   growth when many distinct programs flow through one domain. *)
let compiled_cache_limit = 32

let compiled_cache : (Program.t * compiled) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let compiled_for (prog : Program.t) : compiled =
  let cache = Domain.DLS.get compiled_cache in
  match !cache with
  | (p0, c0) :: _ when p0 == prog -> c0
  | entries -> (
      let rec find = function
        | [] -> None
        | (p, (c : compiled)) :: _ when p == prog -> Some c
        | _ :: rest -> find rest
      in
      match find entries with
      | Some c ->
          (* move-to-front keeps the repeated-replay case one compare *)
          cache := (prog, c) :: List.filter (fun (p, _) -> p != prog) entries;
          c
      | None ->
          let c = compile prog in
          let entries =
            if List.length entries >= compiled_cache_limit then
              List.filteri (fun i _ -> i < compiled_cache_limit - 1) entries
            else entries
          in
          cache := (prog, c) :: entries;
          c)

let run_compiled ~hooks ~syscall ~fuel (prog : Program.t) (m : machine) =
  let c = compiled_for prog in
  let collect = Hooks.has_block_mems hooks in
  (* at most two references per instruction (Movs: read then write) *)
  let buffer () =
    if collect then Array.make (2 * prog.max_block_len) 0 else [||]
  in
  let e =
    {
      cm = m;
      cregs = m.regs;
      cfregs = m.fregs;
      cmem = m.mem;
      csyscall = syscall;
      c_block = hooks.Hooks.on_block;
      c_block_exec = hooks.Hooks.on_block_exec;
      c_span = hooks.Hooks.on_block_span;
      c_branch = hooks.Hooks.on_branch;
      c_mems = hooks.Hooks.on_block_mems;
      c_hooked = not (Hooks.is_nil hooks);
      c_collect = collect;
      c_offs = buffer ();
      c_addrs = buffer ();
      c_nrefs = 0;
      c_seg = 0;
      c_seg_last = 0;
      c_open = false;
      c_halted = false;
    }
  in
  let entry_code = c.entry_code in
  let entry_len = c.entry_len in
  let entry_blocks = c.entry_blocks in
  let remaining = ref fuel in
  let blocks = ref 0 in
  let status = ref Out_of_fuel in
  let running = ref (fuel > 0) in
  while !running do
    let pc = m.pc in
    let len = Array.unsafe_get entry_len pc in
    if len <= !remaining then begin
      m.icount <- m.icount + len;
      remaining := !remaining - len;
      blocks := !blocks + Array.unsafe_get entry_blocks pc;
      (Array.unsafe_get entry_code pc) e;
      (* a chain exit leaves its last block's segment to the dispatcher *)
      if e.c_open then close_segment e;
      if e.c_halted then begin
        status := Halted;
        running := false
      end
      else if !remaining <= 0 then running := false
    end
    else begin
      (* Not enough fuel for the whole chain: the reference engine (or
         the plain tier when nothing is hooked) retires exactly
         [remaining] instructions from here, landing the fuel boundary
         on the same instruction with identical machine state. *)
      status :=
        (if e.c_hooked then run_reference ~hooks ~syscall ~fuel:!remaining prog m
         else run_plain ~syscall ~fuel:!remaining prog m);
      running := false
    end
  done;
  (* [vm.blocks_stepped] counts only hooked runs, as the reference
     engine does: nil-hook fuel splits are an artefact of how a caller
     fast-forwards to its snapshot points rather than of the
     instrumented work, so counting them would tie the metric to that
     plumbing.  A fallback tail counts its own entries. *)
  if e.c_hooked then Sp_obs.Metrics.add M.blocks !blocks;
  !status
[@@inline never]

type engine = Auto | Reference

(* Engine tiers:
   - [Auto], nil or block-level set ([Hooks.block_level]; any
     [on_block_mems] consumer included) -> [run_compiled]: one closure
     call per instruction, chained per superblock, zero decode, hook
     aggregates and data-reference segments once per block
   - otherwise, nil set                  -> [run_plain]: per-instruction
     decode with zero closure calls
   - otherwise                           -> [run_reference]: every hook
     per retirement
   [Reference] pins a run to the per-instruction engines for
   differential testing.  Every tier retires the same instruction
   stream and leaves identical machine state for any fuel split. *)
let run ?(engine = Auto) ?(hooks = Hooks.nil) ?(syscall = default_syscall)
    ?(fuel = max_int) (prog : Program.t) (m : machine) =
  let icount0 = m.icount in
  let tlb0 = Memory.tlb_refills m.mem in
  let status =
    if engine = Auto && Hooks.block_level hooks then begin
      Sp_obs.Metrics.incr M.runs_compiled;
      run_compiled ~hooks ~syscall ~fuel prog m
    end
    else if Hooks.is_nil hooks then begin
      Sp_obs.Metrics.incr M.runs_plain;
      run_plain ~syscall ~fuel prog m
    end
    else begin
      Sp_obs.Metrics.incr M.runs_hooked;
      run_reference ~hooks ~syscall ~fuel prog m
    end
  in
  Sp_obs.Metrics.add M.instructions (m.icount - icount0);
  Sp_obs.Metrics.add M.tlb_refills (Memory.tlb_refills m.mem - tlb0);
  status
