(* Engine conformance suite.

   A per-instruction reference interpreter lives in this file, written
   against the ISA documentation and independent of lib/vm/interp.ml
   (its own memory model, its own leader/block computation).  Random
   programs exercising every terminator kind — fallthrough, conditional
   branch, jump, call, ret, halt — plus self-loops, mid-block syscalls
   and fuel boundaries that land mid-block are executed by the
   reference and by every engine ([Auto], [Reference]) under every hook
   shape (nil, block-level, block-level with an [on_block_mems]
   consumer, per-instruction, per-instruction with an [on_block_mems]
   consumer), resumed in arbitrary fuel chunks, with syscall handlers
   that may raise out of the run.  Outcome, final machine state,
   memory, syscall observation points and every hook stream the shape
   carries must match the reference bit-for-bit. *)

open Sp_isa
open Sp_vm
open Sp_pin

(* ------------------------------------------------------------------ *)
(* Reference interpreter *)

exception Ref_stack of string

type ref_outcome = R_halted | R_fuel | R_stack of string | R_raised

type ref_state = {
  r_regs : int array;
  r_fregs : float array;
  mutable r_pc : int;
  r_stack : int array;
  mutable r_sp : int;
  r_mem : (int, int) Hashtbl.t;
  r_fmem : (int, float) Hashtbl.t;
  mutable r_icount : int;
}

let ref_create entry =
  {
    r_regs = Array.make Isa.num_regs 0;
    r_fregs = Array.make Isa.num_fregs 0.0;
    r_pc = entry;
    r_stack = Array.make 4096 0;
    r_sp = 0;
    r_mem = Hashtbl.create 64;
    r_fmem = Hashtbl.create 64;
    r_icount = 0;
  }

(* same 38-bit word addressing the documented Memory module uses *)
let word addr = (addr land ((1 lsl 38) - 1)) lsr 3
let rload st a = Option.value ~default:0 (Hashtbl.find_opt st.r_mem (word a))
let rstore st a v = Hashtbl.replace st.r_mem (word a) v

let rloadf st a =
  Option.value ~default:0.0 (Hashtbl.find_opt st.r_fmem (word a))

let rstoref st a v = Hashtbl.replace st.r_fmem (word a) v

(* leaders and block ids recomputed from the ISA documentation alone:
   a leader is the entry, a static control-transfer target, or the
   instruction after a control instruction *)
let ref_structure instrs =
  let n = Array.length instrs in
  let leader = Array.make n false in
  leader.(0) <- true;
  Array.iteri
    (fun pc i ->
      match i with
      | Isa.Branch (_, _, _, t) | Isa.Jump t | Isa.Call t ->
          leader.(t) <- true;
          if pc + 1 < n then leader.(pc + 1) <- true
      | Isa.Ret | Isa.Halt -> if pc + 1 < n then leader.(pc + 1) <- true
      | _ -> ())
    instrs;
  let bb_of_pc = Array.make n 0 in
  let id = ref (-1) in
  for pc = 0 to n - 1 do
    if leader.(pc) then incr id;
    bb_of_pc.(pc) <- !id
  done;
  (leader, bb_of_pc)

type ev =
  | E_block of int
  | E_instr of int * int (* pc, kind code *)
  | E_read of int
  | E_write of int
  | E_branch of int * bool

let ref_alu op a b =
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

let ref_falu op a b =
  match (op : Isa.falu_op) with
  | Fadd -> a +. b
  | Fsub -> a -. b
  | Fmul -> a *. b
  | Fdiv -> if b = 0.0 then 0.0 else a /. b

let ref_cond c a b =
  match (c : Isa.cond) with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b

let ref_run ~record ~syscall ~fuel instrs (st : ref_state) =
  let is_leader, bb_of_pc = ref_structure instrs in
  let outcome = ref R_fuel in
  (try
     let remaining = ref fuel in
     let running = ref (fuel > 0) in
     while !running do
       let pc = st.r_pc in
       if is_leader.(pc) then record (E_block bb_of_pc.(pc));
       record (E_instr (pc, Isa.kind_code (Isa.kind instrs.(pc))));
       st.r_icount <- st.r_icount + 1;
       decr remaining;
       (match instrs.(pc) with
       | Isa.Alu (op, rd, r1, r2) ->
           st.r_regs.(rd) <- ref_alu op st.r_regs.(r1) st.r_regs.(r2);
           st.r_pc <- pc + 1
       | Isa.Alui (op, rd, r1, imm) ->
           st.r_regs.(rd) <- ref_alu op st.r_regs.(r1) imm;
           st.r_pc <- pc + 1
       | Isa.Li (rd, imm) ->
           st.r_regs.(rd) <- imm;
           st.r_pc <- pc + 1
       | Isa.Mov (rd, rs) ->
           st.r_regs.(rd) <- st.r_regs.(rs);
           st.r_pc <- pc + 1
       | Isa.Load (rd, rs, off) ->
           let a = st.r_regs.(rs) + off in
           record (E_read a);
           st.r_regs.(rd) <- rload st a;
           st.r_pc <- pc + 1
       | Isa.Store (rv, rb, off) ->
           let a = st.r_regs.(rb) + off in
           record (E_write a);
           rstore st a st.r_regs.(rv);
           st.r_pc <- pc + 1
       | Isa.Movs (rdst, rsrc) ->
           let src = st.r_regs.(rsrc) in
           let dst = st.r_regs.(rdst) in
           record (E_read src);
           record (E_write dst);
           rstore st dst (rload st src);
           st.r_pc <- pc + 1
       | Isa.Falu (op, fd, f1, f2) ->
           st.r_fregs.(fd) <- ref_falu op st.r_fregs.(f1) st.r_fregs.(f2);
           st.r_pc <- pc + 1
       | Isa.Fload (fd, rs, off) ->
           let a = st.r_regs.(rs) + off in
           record (E_read a);
           st.r_fregs.(fd) <- rloadf st a;
           st.r_pc <- pc + 1
       | Isa.Fstore (fv, rb, off) ->
           let a = st.r_regs.(rb) + off in
           record (E_write a);
           rstoref st a st.r_fregs.(fv);
           st.r_pc <- pc + 1
       | Isa.Fmovi (fd, x) ->
           st.r_fregs.(fd) <- x;
           st.r_pc <- pc + 1
       | Isa.Cvtif (fd, rs) ->
           st.r_fregs.(fd) <- float_of_int st.r_regs.(rs);
           st.r_pc <- pc + 1
       | Isa.Cvtfi (rd, fs) ->
           st.r_regs.(rd) <- int_of_float st.r_fregs.(fs);
           st.r_pc <- pc + 1
       | Isa.Branch (c, r1, r2, target) ->
           let taken = ref_cond c st.r_regs.(r1) st.r_regs.(r2) in
           record (E_branch (pc, taken));
           st.r_pc <- (if taken then target else pc + 1)
       | Isa.Jump target -> st.r_pc <- target
       | Isa.Call target ->
           if st.r_sp >= 4096 then
             raise
               (Ref_stack (Printf.sprintf "call-stack overflow at pc %d" pc));
           st.r_stack.(st.r_sp) <- pc + 1;
           st.r_sp <- st.r_sp + 1;
           st.r_pc <- target
       | Isa.Ret ->
           if st.r_sp <= 0 then
             raise
               (Ref_stack (Printf.sprintf "ret on empty stack at pc %d" pc));
           st.r_sp <- st.r_sp - 1;
           st.r_pc <- st.r_stack.(st.r_sp)
       | Isa.Sys (n, rd) ->
           st.r_regs.(rd) <- syscall n;
           st.r_pc <- pc + 1
       | Isa.Halt ->
           st.r_pc <- pc;
           outcome := R_halted;
           running := false);
       if !remaining <= 0 then running := false
     done
   with Ref_stack msg -> outcome := R_stack msg);
  !outcome

(* ------------------------------------------------------------------ *)
(* Random program generator: every terminator kind, self-loops allowed *)

let test_fuel = 300

let prog_gen =
  QCheck.Gen.(
    int_range 4 40 >>= fun body_len ->
    let n = body_len + 1 in
    (* final Halt backstop keeps every pc reachable in-range *)
    let target = int_range 0 (n - 1) in
    let reg = 0 -- 7 in
    let freg = 0 -- 7 in
    let instr_gen =
      frequency
        [
          (3, map2 (fun rd imm -> Isa.Li (rd, imm)) reg (int_range (-64) 64));
          ( 3,
            map3
              (fun op rd (r1, r2) -> Isa.Alu (op, rd, r1, r2))
              (oneofl
                 [ Isa.Add; Isa.Sub; Isa.Mul; Isa.Div; Isa.Rem; Isa.And;
                   Isa.Or; Isa.Xor; Isa.Shl; Isa.Shr ])
              reg (pair reg reg) );
          ( 2,
            map3
              (fun op (rd, r1) imm -> Isa.Alui (op, rd, r1, imm))
              (oneofl
                 [ Isa.Add; Isa.Sub; Isa.Mul; Isa.Div; Isa.Rem; Isa.And;
                   Isa.Or; Isa.Xor; Isa.Shl; Isa.Shr ])
              (pair reg reg) (int_range (-8) 8) );
          (1, map2 (fun rd rs -> Isa.Mov (rd, rs)) reg reg);
          (1, map2 (fun rd rs -> Isa.Movs (rd, rs)) reg reg);
          (1, map2 (fun fd rs -> Isa.Cvtif (fd, rs)) freg reg);
          (1, map2 (fun rd fs -> Isa.Cvtfi (rd, fs)) reg freg);
          ( 2,
            map3
              (fun rd rs off -> Isa.Load (rd, rs, off * 8))
              reg reg (int_range 0 32) );
          ( 2,
            map3
              (fun rv rb off -> Isa.Store (rv, rb, off * 8))
              reg reg (int_range 0 32) );
          ( 1,
            map2
              (fun fd x -> Isa.Fmovi (fd, float_of_int x))
              freg (int_range (-16) 16) );
          ( 1,
            map3
              (fun op fd (f1, f2) -> Isa.Falu (op, fd, f1, f2))
              (oneofl [ Isa.Fadd; Isa.Fsub; Isa.Fmul; Isa.Fdiv ])
              freg (pair freg freg) );
          ( 1,
            map3
              (fun fd rs off -> Isa.Fload (fd, rs, off * 8))
              freg reg (int_range 0 32) );
          ( 1,
            map3
              (fun fv rb off -> Isa.Fstore (fv, rb, off * 8))
              freg reg (int_range 0 32) );
          ( 2,
            map3
              (fun c (r1, r2) t -> Isa.Branch (c, r1, r2, t))
              (oneofl [ Isa.Eq; Isa.Ne; Isa.Lt; Isa.Le; Isa.Gt; Isa.Ge ])
              (pair reg reg) target );
          (1, map (fun t -> Isa.Jump t) target);
          (1, map (fun t -> Isa.Call t) target);
          (1, return Isa.Ret);
          (1, map2 (fun ch rd -> Isa.Sys (ch, rd)) (0 -- 3) reg);
          (1, return Isa.Halt);
        ]
    in
    map
      (fun body -> Array.of_list (body @ [ Isa.Halt ]))
      (list_repeat body_len instr_gen))

let test_syscall n = ((n * 37) + 11) land 0xFF

(* ------------------------------------------------------------------ *)
(* Reference-side views *)

let expand_block_exec entries =
  List.concat_map (fun (bb, n) -> List.init n (fun _ -> bb)) entries

let retire_pcs events =
  List.filter_map (function E_instr (pc, _) -> Some pc | _ -> None) events

let write_addrs events =
  List.filter_map (function E_write a -> Some a | _ -> None) events

(* per retired instruction: its pc and its data references, encoded as
   [on_block_mems] encodes them *)
let ref_mems events =
  let rec go acc = function
    | [] -> List.rev acc
    | E_instr (pc, _) :: rest ->
        let rec refs rs = function
          | E_read a :: rest -> refs ((a lsl 1) :: rs) rest
          | E_write a :: rest -> refs (((a lsl 1) lor 1) :: rs) rest
          | (E_block _ | E_branch _) :: rest -> refs rs rest
          | rest -> (List.rev rs, rest)
        in
        let rs, rest = refs [] rest in
        go ((pc, rs) :: acc) rest
    | _ :: rest -> go acc rest
  in
  go [] events

(* for each [on_block]/[on_branch] event, the instructions retired
   before it fired: what a segment consumer must have been delivered *)
let ref_marks events =
  let retired = ref 0 in
  List.filter_map
    (function
      | E_instr _ ->
          incr retired;
          None
      | E_block _ | E_branch _ -> Some !retired
      | E_read _ | E_write _ -> None)
    events

let state_matches (st : ref_state) (m : Interp.machine) events =
  Array.for_all2 ( = ) st.r_regs m.Interp.regs
  && Array.for_all2
       (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
       st.r_fregs m.Interp.fregs
  && st.r_pc = m.Interp.pc
  && st.r_sp = m.Interp.sp
  && Array.sub st.r_stack 0 st.r_sp = Array.sub m.Interp.callstack 0 m.Interp.sp
  && st.r_icount = m.Interp.icount
  && List.for_all
       (fun a ->
         rload st a = Memory.load m.Interp.mem a
         && Int64.bits_of_float (rloadf st a)
            = Int64.bits_of_float (Memory.loadf m.Interp.mem a))
       (write_addrs events)

(* Program metadata consistency: block table vs a naive recomputation *)
let metadata_consistent instrs (p : Program.t) =
  let leaders, bb_of_pc = ref_structure instrs in
  Array.for_all2 ( = ) leaders p.Program.is_leader
  && Array.for_all2 ( = ) bb_of_pc p.Program.bb_of_pc
  && Array.for_all
       (fun (b : Program.block) ->
         let last = instrs.(b.start_pc + b.len - 1) in
         let term_ok =
           match (last, b.term) with
           | Isa.Branch _, Program.Cond_branch -> true
           | Isa.Jump _, Program.Jump -> true
           | Isa.Call _, Program.Call -> true
           | Isa.Ret, Program.Ret -> true
           | Isa.Halt, Program.Halt -> true
           | i, Program.Fallthrough -> not (Isa.is_control i)
           | _ -> false
         in
         let counted = Array.make Isa.num_kinds 0 in
         for pc = b.start_pc to b.start_pc + b.len - 1 do
           let k = Isa.kind_code (Isa.kind instrs.(pc)) in
           counted.(k) <- counted.(k) + 1
         done;
         term_ok
         && p.Program.block_end.(b.id) = b.start_pc + b.len
         && Array.fold_left ( + ) 0 b.kind_counts = b.len
         && Array.for_all2 ( = ) counted b.kind_counts)
       p.Program.blocks

(* ------------------------------------------------------------------ *)
(* One engine run under one hook shape *)

exception Boom

type shape = Nil | Block | Block_mems | Instr | Instr_mems

let shapes = [ Nil; Block; Block_mems; Instr; Instr_mems ]

let shape_name = function
  | Nil -> "nil"
  | Block -> "block-level"
  | Block_mems -> "block-level + on_block_mems"
  | Instr -> "per-instruction"
  | Instr_mems -> "per-instruction + on_block_mems"

let block_hooked = function Nil -> false | _ -> true
let mems = function Block_mems | Instr_mems -> true | _ -> false
let per_instr = function Instr | Instr_mems -> true | _ -> false

type obs = {
  o_out : ref_outcome;
  o_sys : (int * int * int) list;  (** channel, icount, pc per syscall *)
  o_trace : ev list;  (** every per-event callback, in firing order *)
  o_marks : int list;
      (** instructions delivered in segments when each [on_block] /
          [on_branch] fired *)
  o_retires : int list;  (** [on_block_exec], one block id per retirement *)
  o_pcs : int list;  (** [on_block_span], one pc per retirement *)
  o_nspans : int;  (** [on_block_span] calls *)
  o_mems : (int * int list) list;
      (** [on_block_mems], one (pc, references) per retirement *)
  o_segs_ok : bool;  (** every segment non-empty, in one block, well formed *)
  o_blocks_stepped : float;  (** [vm.blocks_stepped] delta *)
  o_m : Interp.machine;
}

(* Run [p] for [test_fuel] instructions in [chunk]-sized [Interp.run]
   calls; the [fatal]-th syscall raises (0: none does). *)
let observe ~engine ~shape ~chunk ~fatal (p : Program.t) =
  let m = Interp.create ~entry:0 () in
  let trace = ref [] and marks = ref [] and bx = ref [] and spans = ref [] in
  let segs = ref [] and delivered = ref 0 and segs_ok = ref true in
  let sys = ref [] and calls = ref 0 in
  let push e = trace := e :: !trace in
  let block_hooks =
    {
      Hooks.nil with
      Hooks.on_block =
        (fun bb ->
          push (E_block bb);
          marks := !delivered :: !marks);
      on_block_exec = (fun bb n -> bx := (bb, n) :: !bx);
      on_block_span = (fun pc0 n -> spans := (pc0, n) :: !spans);
      on_branch =
        (fun pc t ->
          push (E_branch (pc, t));
          marks := !delivered :: !marks);
    }
  in
  let instr_hooks =
    {
      Hooks.nil with
      Hooks.on_instr = (fun pc k -> push (E_instr (pc, k)));
      on_read = (fun a -> push (E_read a));
      on_write = (fun a -> push (E_write a));
    }
  in
  let on_block_mems pc0 n offs addrs nrefs =
    let bb = p.Program.bb_of_pc.(pc0) in
    let ok =
      ref (n >= 1 && nrefs <= 2 * n && pc0 + n <= p.Program.block_end.(bb))
    in
    if engine = Interp.Reference && n <> 1 then ok := false;
    for r = 0 to nrefs - 1 do
      if offs.(r) < 0 || offs.(r) >= n || (r > 0 && offs.(r) < offs.(r - 1)) then
        ok := false
    done;
    if not !ok then segs_ok := false
    else
      for i = 0 to n - 1 do
        let refs = ref [] in
        for r = nrefs - 1 downto 0 do
          if offs.(r) = i then refs := addrs.(r) :: !refs
        done;
        segs := (pc0 + i, !refs) :: !segs
      done;
    delivered := !delivered + n
  in
  let hooks =
    Hooks.seq_all
      ((if block_hooked shape then [ block_hooks ] else [])
      @ (if per_instr shape then [ instr_hooks ] else [])
      @
      if mems shape then [ { Hooks.nil with Hooks.on_block_mems } ] else [])
  in
  let syscall n =
    incr calls;
    sys := (n, m.Interp.icount, m.Interp.pc) :: !sys;
    if !calls = fatal then raise Boom;
    test_syscall n
  in
  let blocks_stepped () =
    Option.value ~default:0.0
      (Sp_obs.Metrics.counter_value (Sp_obs.Metrics.snapshot ())
         "vm.blocks_stepped")
  in
  let blocks0 = blocks_stepped () in
  let outcome = ref R_fuel in
  let left = ref test_fuel in
  (try
     while !left > 0 && !outcome = R_fuel do
       let f = min chunk !left in
       left := !left - f;
       match Interp.run ~engine ~hooks ~syscall ~fuel:f p m with
       | Interp.Halted -> outcome := R_halted
       | Interp.Out_of_fuel -> ()
     done
   with
  | Interp.Stack_error msg -> outcome := R_stack msg
  | Boom -> outcome := R_raised);
  let pcs_of_spans =
    List.concat_map (fun (pc0, n) -> List.init n (fun i -> pc0 + i))
  in
  {
    o_out = !outcome;
    o_sys = List.rev !sys;
    o_trace = List.rev !trace;
    o_marks = List.rev !marks;
    o_retires = expand_block_exec (List.rev !bx);
    o_pcs = pcs_of_spans (List.rev !spans);
    o_nspans = List.length !spans;
    o_mems = List.rev !segs;
    o_segs_ok = !segs_ok;
    o_blocks_stepped = blocks_stepped () -. blocks0;
    o_m = m;
  }

(* ------------------------------------------------------------------ *)
(* Main property: engines x hook shapes x fuel splits x raising
   syscall handlers, against the reference interpreter *)

let snapshot_bytes m =
  let buf = Buffer.create 256 in
  Snapshot.write buf (Snapshot.capture m);
  Buffer.contents buf

let case_gen =
  QCheck.Gen.(
    triple prog_gen
      (frequency
         [ (3, int_range 1 11); (3, int_range 12 80); (1, return test_fuel) ])
      (frequency [ (3, return 0); (2, int_range 1 4) ]))

let case_print (instrs, chunk, fatal) =
  Printf.sprintf "len=%d chunk=%d fatal=%d\n%s" (Array.length instrs) chunk
    fatal
    (String.concat "\n"
       (Array.to_list
          (Array.mapi
             (fun pc i -> Printf.sprintf "%3d: %s" pc (Isa.to_string i))
             instrs)))

(* Run one case on each of [engines] under each of [shapes] and check
   every run against the reference interpreter. *)
let conforms_on ~engines ~shapes (instrs, chunk, fatal) =
  let p = Program.of_instrs instrs in
  let _, bb_of_pc = ref_structure instrs in
  let st = ref_create 0 in
  let events = ref [] and sys = ref [] and calls = ref 0 in
  let out =
    try
      ref_run
        ~record:(fun e -> events := e :: !events)
        ~syscall:(fun n ->
          incr calls;
          sys := (n, st.r_icount, st.r_pc) :: !sys;
          if !calls = fatal then raise Boom;
          test_syscall n)
        ~fuel:test_fuel instrs st
    with Boom -> R_raised
  in
  let events = List.rev !events in
  let sys = List.rev !sys in
  let pcs = retire_pcs events in
  let block_events =
    List.filter (function E_block _ | E_branch _ -> true | _ -> false) events
  in
  (* [vm.blocks_stepped] per hooked run: its first instruction plus
     each leader entered after it; a run that raises adds nothing *)
  let blocks_stepped =
    let rec runs acc = function
      | [] -> acc
      | pcs ->
          let run = List.filteri (fun i _ -> i < chunk) pcs in
          let rest = List.filteri (fun i _ -> i >= chunk) pcs in
          let entries =
            List.length
              (List.filter (fun pc -> p.Program.is_leader.(pc)) run)
            + if p.Program.is_leader.(List.hd run) then 0 else 1
          in
          let counted =
            rest <> []
            || (match out with R_raised | R_stack _ -> false | _ -> true)
          in
          runs (if counted then acc + entries else acc) rest
    in
    float_of_int (runs 0 pcs)
  in
  let snapshot = ref None in
  let conforms engine shape =
    let o = observe ~engine ~shape ~chunk ~fatal p in
    let check what ok =
      if not ok then
        QCheck.Test.fail_reportf "%s engine, %s hooks: %s differs"
          (if engine = Interp.Auto then "Auto" else "Reference")
          (shape_name shape) what
    in
    check "outcome" (o.o_out = out);
    check "syscall observations" (o.o_sys = sys);
    check "vm.blocks_stepped"
      (o.o_blocks_stepped
      = if block_hooked shape then blocks_stepped else 0.0);
    check "machine state" (state_matches st o.o_m events);
    (* every run serialises to the same snapshot, memory image and
       call stack included *)
    let bytes = snapshot_bytes o.o_m in
    if !snapshot = None then snapshot := Some bytes;
    check "snapshot bytes" (!snapshot = Some bytes);
    if block_hooked shape then begin
      (* a compiled block announces its entry up front, so a handler
         raising mid-block may leave the aggregates covering the
         rest of the faulting syscall's block too *)
      let padded =
        match (out, List.rev pcs) with
        | R_raised, last :: _
          when engine = Interp.Auto && not (per_instr shape) ->
            let stop = p.Program.block_end.(bb_of_pc.(last)) in
            pcs @ List.init (stop - last - 1) (fun i -> last + 1 + i)
        | _ -> pcs
      in
      check "on_block_span stream" (o.o_pcs = pcs || o.o_pcs = padded);
      (* the compiled tier batches: at most one span per block entry
         (a fuel tail may add single-instruction ones), never more
         than one per retirement *)
      check "on_block_span batching"
        (if engine = Interp.Reference || per_instr shape then
           o.o_nspans = List.length pcs
         else
           o.o_nspans <= List.length o.o_pcs
           && o.o_nspans
              >= List.length
                   (List.filter
                      (function E_block _ -> true | _ -> false)
                      events));
      let blocks_of = List.map (fun pc -> bb_of_pc.(pc)) in
      check "on_block_exec stream"
        (o.o_retires = blocks_of pcs || o.o_retires = blocks_of padded)
    end;
    check "event trace"
      (o.o_trace
      = if per_instr shape then events
        else if block_hooked shape then block_events
        else []);
    if mems shape then begin
      check "segment shape" o.o_segs_ok;
      check "on_block_mems stream" (o.o_mems = ref_mems events);
      check "segment delivery order" (o.o_marks = ref_marks events)
    end
  in
  metadata_consistent instrs p
  && (List.iter (fun engine -> List.iter (conforms engine) shapes) engines;
      true)

let both = [ Interp.Auto; Interp.Reference ]

let case_property ~name ~count ~engines ~shapes gen =
  QCheck.Test.make ~name ~count
    (QCheck.make ~print:case_print gen)
    (conforms_on ~engines ~shapes)

let prop_conformance =
  case_property ~name:"engines conform to the reference interpreter"
    ~count:1000 ~engines:both ~shapes case_gen

(* Focused slices of the same property: whole runs, fuel splits and
   raising handlers each get a property of their own *)

let whole_gen = QCheck.Gen.map (fun i -> (i, test_fuel, 0)) prog_gen

let split_gen lo hi =
  QCheck.Gen.(map (fun (i, c) -> (i, c, 0)) (pair prog_gen (int_range lo hi)))

let fatal_gen =
  QCheck.Gen.(
    map (fun (i, f) -> (i, test_fuel, f)) (pair prog_gen (int_range 1 4)))

let prop_agrees =
  case_property ~name:"engines agree with reference interpreter" ~count:400
    ~engines:both ~shapes whole_gen

let prop_block_fuel_split =
  case_property ~name:"block engine is fuel-split invariant" ~count:200
    ~engines:both ~shapes:[ Block; Block_mems ] (split_gen 1 11)

let prop_compiled_agrees =
  case_property ~name:"compiled engine agrees with reference" ~count:400
    ~engines:[ Interp.Auto ] ~shapes whole_gen

let prop_compiled_fuel_split =
  case_property ~name:"compiled engine is fuel-split invariant" ~count:300
    ~engines:[ Interp.Auto ] ~shapes (split_gen 1 80)

let prop_raising_handlers =
  case_property ~name:"raising syscall handlers are tier-independent"
    ~count:300 ~engines:both ~shapes fatal_gen

(* ------------------------------------------------------------------ *)
(* BBV slices: both engines vs a reference slicer over the
   per-retirement stream *)

let ref_slices ~slice_len retires =
  let slices = ref [] in
  let counts : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let cur_len = ref 0 in
  let start = ref 0 in
  let index = ref 0 in
  let close () =
    let bbv =
      Hashtbl.fold (fun bb c acc -> (bb, c) :: acc) counts []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      |> Array.of_list
    in
    slices :=
      {
        Bbv_tool.index = !index;
        start_icount = !start;
        length = !cur_len;
        bbv;
      }
      :: !slices;
    incr index;
    start := !start + !cur_len;
    cur_len := 0;
    Hashtbl.reset counts
  in
  List.iter
    (fun bb ->
      Hashtbl.replace counts bb
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts bb));
      incr cur_len;
      if !cur_len = slice_len then close ())
    retires;
  if !cur_len > 0 then close ();
  Array.of_list (List.rev !slices)

let slice_eq (a : Bbv_tool.slice) (b : Bbv_tool.slice) =
  a.index = b.index
  && a.start_icount = b.start_icount
  && a.length = b.length
  && a.bbv = b.bbv

let replay ~engine hooks p =
  let m = Interp.create ~entry:0 () in
  try
    ignore
      (Interp.run ~engine ~hooks ~syscall:test_syscall ~fuel:test_fuel p m)
  with Interp.Stack_error _ -> ()

let prop_bbv_slices =
  QCheck.Test.make ~name:"BBV slices identical across engines" ~count:200
    (QCheck.make QCheck.Gen.(pair prog_gen (int_range 3 9)))
    (fun (instrs, slice_len) ->
      let p = Program.of_instrs instrs in
      let _, bb_of_pc = ref_structure instrs in
      let st = ref_create 0 in
      let events = ref [] in
      ignore
        (ref_run
           ~record:(fun e -> events := e :: !events)
           ~syscall:test_syscall ~fuel:test_fuel instrs st);
      let retires =
        List.map (fun pc -> bb_of_pc.(pc)) (retire_pcs (List.rev !events))
      in
      let expected = ref_slices ~slice_len retires in
      List.for_all
        (fun engine ->
          let bbv = Bbv_tool.create ~slice_len p in
          replay ~engine (Bbv_tool.hooks bbv) p;
          Bbv_tool.finish bbv;
          let got = Bbv_tool.slices bbv in
          Array.length got = Array.length expected
          && Array.for_all2 slice_eq got expected)
        both)

(* ------------------------------------------------------------------ *)
(* The combined single-pass profiler: one replay must produce the BBV
   slices, ldst mix and per-kind counts of three dedicated-tool
   replays, bit for bit, on either engine *)

let prop_profile_combined =
  QCheck.Test.make ~name:"combined profiler equals three dedicated replays"
    ~count:300
    (QCheck.make QCheck.Gen.(pair prog_gen (int_range 3 9)))
    (fun (instrs, slice_len) ->
      let p = Program.of_instrs instrs in
      let bbv = Bbv_tool.create ~slice_len p in
      replay ~engine:Interp.Reference (Bbv_tool.hooks bbv) p;
      Bbv_tool.finish bbv;
      let mixt = Ldstmix.create () in
      replay ~engine:Interp.Reference (Ldstmix.hooks mixt) p;
      let ins = Inscount.create () in
      replay ~engine:Interp.Reference (Inscount.hooks ins) p;
      let mix_bits (x : Mix.t) =
        ( Int64.bits_of_float x.Mix.no_mem,
          Int64.bits_of_float x.Mix.mem_r,
          Int64.bits_of_float x.Mix.mem_w,
          Int64.bits_of_float x.Mix.mem_rw )
      in
      let kinds = List.init Isa.num_kinds Isa.kind_of_code in
      List.for_all
        (fun engine ->
          let prof = Profile_tool.create ~slice_len p in
          replay ~engine (Profile_tool.hooks prof) p;
          Profile_tool.finish prof;
          Profile_tool.hooks prof |> Hooks.block_level
          && Array.length (Profile_tool.slices prof)
             = Array.length (Bbv_tool.slices bbv)
          && Array.for_all2 slice_eq (Profile_tool.slices prof)
               (Bbv_tool.slices bbv)
          && Profile_tool.total prof = Inscount.total ins
          && List.for_all
               (fun k -> Profile_tool.by_kind prof k = Inscount.by_kind ins k)
               kinds
          && List.for_all
               (fun c -> Profile_tool.ldst_count prof c = Ldstmix.count mixt c)
               [ Isa.No_mem; Isa.Mem_r; Isa.Mem_w; Isa.Mem_rw ]
          && mix_bits (Profile_tool.ldst_mix prof) = mix_bits (Ldstmix.mix mixt))
        both)

(* ------------------------------------------------------------------ *)
(* Engine selection, read off the unstable per-tier run counters *)

let test_engine_selection () =
  let p =
    Program.of_instrs
      [| Isa.Li (1, 0x40); Isa.Load (2, 1, 0); Isa.Store (2, 1, 8); Isa.Halt |]
  in
  let mems = { Hooks.nil with Hooks.on_block_mems = (fun _ _ _ _ _ -> ()) } in
  let block = { Hooks.nil with Hooks.on_block = ignore } in
  let instr = { Hooks.nil with Hooks.on_instr = (fun _ _ -> ()) } in
  let tiers = [ "vm.runs.compiled"; "vm.runs.plain"; "vm.runs.hooked" ] in
  let tier_of engine hooks =
    let count () =
      let snap = Sp_obs.Metrics.snapshot () in
      List.map
        (fun n ->
          Option.value ~default:0.0 (Sp_obs.Metrics.counter_value snap n))
        tiers
    in
    let before = count () in
    ignore (Interp.run ~engine ~hooks p (Interp.create ~entry:0 ()));
    List.combine tiers (List.map2 ( -. ) (count ()) before)
    |> List.filter (fun (_, d) -> d > 0.0)
    |> List.map fst
  in
  List.iter
    (fun (what, engine, hooks, expected) ->
      Alcotest.(check (list string)) what [ expected ] (tier_of engine hooks))
    [
      ("auto nil", Interp.Auto, Hooks.nil, "vm.runs.compiled");
      ("auto block-level", Interp.Auto, block, "vm.runs.compiled");
      ("auto segments", Interp.Auto, Hooks.seq block mems, "vm.runs.compiled");
      ( "auto per-instruction", Interp.Auto, Hooks.seq instr mems,
        "vm.runs.hooked" );
      ("reference nil", Interp.Reference, Hooks.nil, "vm.runs.plain");
      ("reference segments", Interp.Reference, mems, "vm.runs.hooked");
    ]

(* the whole-run and fuel-split slices, kept under the names the
   block-stepping and compiled-tier suites gave them *)
let blockstep_suite =
  List.map QCheck_alcotest.to_alcotest [ prop_agrees; prop_block_fuel_split ]

let compiled_suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_compiled_agrees; prop_compiled_fuel_split; prop_raising_handlers ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_conformance;
    QCheck_alcotest.to_alcotest prop_bbv_slices;
    QCheck_alcotest.to_alcotest prop_profile_combined;
    Alcotest.test_case "Auto and Reference pick their engines" `Quick
      test_engine_selection;
  ]
