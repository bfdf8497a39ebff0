open Sp_isa

(* How a basic block transfers control: the class of its final
   instruction, or [Fallthrough] when the block ends only because the
   next pc is a leader. *)
type terminator = Fallthrough | Cond_branch | Jump | Call | Ret | Halt

type block = {
  id : int;
  start_pc : int;
  len : int;
  term : terminator;
  (* how many instructions of each [Isa.kind] the block holds, indexed
     by kind code — lets block-level tools credit a whole block without
     re-scanning its body *)
  kind_counts : int array;
  (* static instruction-fetch footprint: byte address of the leader and
     byte extent of the straight-line body.  Instructions are fixed
     size, so a cache tool derives the block's fetched line/page sets
     for any power-of-two geometry by shifting the two endpoints. *)
  fetch_base : int;
  fetch_bytes : int;
}

type t = {
  name : string;
  instrs : Isa.instr array;
  kinds : int array;
  bb_of_pc : int array;
  is_leader : bool array;
  blocks : block array;
  (* exclusive end pc per block id: [block_end.(bb) = start_pc + len].
     Kept as a flat array so a block-level tool finds the straight-line
     extent of the current block with one load. *)
  block_end : int array;
  (* longest straight-line block body, in instructions — sizes the
     compiled tier's per-run data-reference buffers *)
  max_block_len : int;
  entry : int;
  code_base : int;
}

let terminator_of_instr (i : Isa.instr) =
  match i with
  | Isa.Branch _ -> Cond_branch
  | Isa.Jump _ -> Jump
  | Isa.Call _ -> Call
  | Isa.Ret -> Ret
  | Isa.Halt -> Halt
  | _ -> Fallthrough

let terminator_name = function
  | Fallthrough -> "fallthrough"
  | Cond_branch -> "branch"
  | Jump -> "jump"
  | Call -> "call"
  | Ret -> "ret"
  | Halt -> "halt"

let of_instrs ?(name = "anon") ?(entry = 0) ?(code_base = 0x40_0000) instrs =
  let n = Array.length instrs in
  if n = 0 then invalid_arg "Program.of_instrs: empty program";
  if entry < 0 || entry >= n then invalid_arg "Program.of_instrs: bad entry";
  (match instrs.(n - 1) with
  | Isa.Halt | Isa.Jump _ | Isa.Ret -> ()
  | _ ->
      (* every engine fetches [pc + 1] unchecked after a fallthrough, a
         not-taken branch or a call's return *)
      invalid_arg
        (Printf.sprintf
           "Program.of_instrs(%s): last instruction can fall off the end \
            (end with halt, jump or ret)"
           name));
  let leader = Array.make n false in
  leader.(0) <- true;
  leader.(entry) <- true;
  Array.iteri
    (fun pc i ->
      (match Isa.branch_target i with
      | Some t ->
          if t < 0 || t >= n then
            invalid_arg
              (Printf.sprintf "Program.of_instrs(%s): target %d out of range at pc %d"
                 name t pc)
          else leader.(t) <- true
      | None -> ());
      if Isa.is_control i && pc + 1 < n then leader.(pc + 1) <- true)
    instrs;
  let kinds = Array.map (fun i -> Isa.kind_code (Isa.kind i)) instrs in
  let bb_of_pc = Array.make n 0 in
  let blocks = ref [] in
  let nblocks = ref 0 in
  let start = ref 0 in
  let close_block last =
    let id = !nblocks in
    incr nblocks;
    let kind_counts = Array.make Isa.num_kinds 0 in
    for pc = !start to last do
      bb_of_pc.(pc) <- id;
      let k = kinds.(pc) in
      kind_counts.(k) <- kind_counts.(k) + 1
    done;
    let len = last - !start + 1 in
    blocks :=
      {
        id;
        start_pc = !start;
        len;
        term = terminator_of_instr instrs.(last);
        kind_counts;
        fetch_base = code_base + (!start * Isa.bytes_per_instr);
        fetch_bytes = len * Isa.bytes_per_instr;
      }
      :: !blocks
  in
  for pc = 0 to n - 1 do
    if pc > !start && leader.(pc) then begin
      close_block (pc - 1);
      start := pc
    end
  done;
  close_block (n - 1);
  let blocks = Array.of_list (List.rev !blocks) in
  {
    name;
    instrs;
    kinds;
    bb_of_pc;
    is_leader = leader;
    blocks;
    block_end = Array.map (fun b -> b.start_pc + b.len) blocks;
    max_block_len = Array.fold_left (fun m b -> max m b.len) 0 blocks;
    entry;
    code_base;
  }

let num_blocks t = Array.length t.blocks

let fetch_addr t pc = t.code_base + (pc * Isa.bytes_per_instr)

let block_at t pc = t.blocks.(t.bb_of_pc.(pc))

(* ------------------------------------------------------------------ *)
(* Serialisation (pinball format v2).  Only the constructor inputs are
   encoded — name, instructions, entry, code base; the block structure
   is recomputed by [of_instrs] on decode, which also re-validates every
   static branch target. *)

let alu_op_code : Isa.alu_op -> int = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Rem -> 4
  | And -> 5 | Or -> 6 | Xor -> 7 | Shl -> 8 | Shr -> 9

let alu_op_of_code : int -> Isa.alu_op = function
  | 0 -> Add | 1 -> Sub | 2 -> Mul | 3 -> Div | 4 -> Rem
  | 5 -> And | 6 -> Or | 7 -> Xor | 8 -> Shl | 9 -> Shr
  | n -> Sp_util.Binio.fail "Program: bad ALU op code %d" n

let falu_op_code : Isa.falu_op -> int = function
  | Fadd -> 0 | Fsub -> 1 | Fmul -> 2 | Fdiv -> 3

let falu_op_of_code : int -> Isa.falu_op = function
  | 0 -> Fadd | 1 -> Fsub | 2 -> Fmul | 3 -> Fdiv
  | n -> Sp_util.Binio.fail "Program: bad FP op code %d" n

let cond_code : Isa.cond -> int = function
  | Eq -> 0 | Ne -> 1 | Lt -> 2 | Le -> 3 | Gt -> 4 | Ge -> 5

let cond_of_code : int -> Isa.cond = function
  | 0 -> Eq | 1 -> Ne | 2 -> Lt | 3 -> Le | 4 -> Gt | 5 -> Ge
  | n -> Sp_util.Binio.fail "Program: bad condition code %d" n

let write_instr buf (i : Isa.instr) =
  let open Sp_util in
  let op = Binio.w_u8 buf in
  match i with
  | Alu (o, rd, r1, r2) -> op 0; op (alu_op_code o); op rd; op r1; op r2
  | Alui (o, rd, r1, imm) ->
      op 1; op (alu_op_code o); op rd; op r1; Binio.w_i64 buf imm
  | Li (rd, imm) -> op 2; op rd; Binio.w_i64 buf imm
  | Mov (rd, rs) -> op 3; op rd; op rs
  | Load (rd, rs, off) -> op 4; op rd; op rs; Binio.w_i64 buf off
  | Store (rv, rb, off) -> op 5; op rv; op rb; Binio.w_i64 buf off
  | Movs (rd, rs) -> op 6; op rd; op rs
  | Falu (o, fd, f1, f2) -> op 7; op (falu_op_code o); op fd; op f1; op f2
  | Fload (fd, rs, off) -> op 8; op fd; op rs; Binio.w_i64 buf off
  | Fstore (fv, rb, off) -> op 9; op fv; op rb; Binio.w_i64 buf off
  | Fmovi (fd, x) -> op 10; op fd; Binio.w_f64 buf x
  | Cvtif (fd, rs) -> op 11; op fd; op rs
  | Cvtfi (rd, fs) -> op 12; op rd; op fs
  | Branch (c, r1, r2, t) ->
      op 13; op (cond_code c); op r1; op r2; Binio.w_i64 buf t
  | Jump t -> op 14; Binio.w_i64 buf t
  | Call t -> op 15; Binio.w_i64 buf t
  | Ret -> op 16
  | Sys (n, rd) -> op 17; Binio.w_i64 buf n; op rd
  | Halt -> op 18

let read_instr r : Isa.instr =
  let open Sp_util in
  let reg () =
    let v = Binio.r_u8 r in
    if v >= Isa.num_regs then Binio.fail "Program: bad register %d" v;
    v
  in
  match Binio.r_u8 r with
  | 0 ->
      let o = alu_op_of_code (Binio.r_u8 r) in
      let rd = reg () in let r1 = reg () in let r2 = reg () in
      Alu (o, rd, r1, r2)
  | 1 ->
      let o = alu_op_of_code (Binio.r_u8 r) in
      let rd = reg () in let r1 = reg () in
      Alui (o, rd, r1, Binio.r_i64 r)
  | 2 -> let rd = reg () in Li (rd, Binio.r_i64 r)
  | 3 -> let rd = reg () in Mov (rd, reg ())
  | 4 -> let rd = reg () in let rs = reg () in Load (rd, rs, Binio.r_i64 r)
  | 5 -> let rv = reg () in let rb = reg () in Store (rv, rb, Binio.r_i64 r)
  | 6 -> let rd = reg () in Movs (rd, reg ())
  | 7 ->
      let o = falu_op_of_code (Binio.r_u8 r) in
      let fd = reg () in let f1 = reg () in let f2 = reg () in
      Falu (o, fd, f1, f2)
  | 8 -> let fd = reg () in let rs = reg () in Fload (fd, rs, Binio.r_i64 r)
  | 9 -> let fv = reg () in let rb = reg () in Fstore (fv, rb, Binio.r_i64 r)
  | 10 -> let fd = reg () in Fmovi (fd, Binio.r_f64 r)
  | 11 -> let fd = reg () in Cvtif (fd, reg ())
  | 12 -> let rd = reg () in Cvtfi (rd, reg ())
  | 13 ->
      let c = cond_of_code (Binio.r_u8 r) in
      let r1 = reg () in let r2 = reg () in
      Branch (c, r1, r2, Binio.r_i64 r)
  | 14 -> Jump (Binio.r_i64 r)
  | 15 -> Call (Binio.r_i64 r)
  | 16 -> Ret
  | 17 -> let n = Binio.r_i64 r in Sys (n, reg ())
  | 18 -> Halt
  | n -> Binio.fail "Program: bad opcode %d" n

let write buf t =
  let open Sp_util in
  Binio.w_string buf t.name;
  Binio.w_i64 buf t.entry;
  Binio.w_i64 buf t.code_base;
  Binio.w_u32 buf (Array.length t.instrs);
  Array.iter (write_instr buf) t.instrs

let read r =
  let open Sp_util in
  let name = Binio.r_string r in
  let entry = Binio.r_i64 r in
  let code_base = Binio.r_i64 r in
  let n = Binio.r_count r ~elem_bytes:1 "instruction array" in
  let instrs = Array.init n (fun _ -> read_instr r) in
  (* [of_instrs] re-validates entry and every static target *)
  match of_instrs ~name ~entry ~code_base instrs with
  | t -> t
  | exception Invalid_argument msg -> Binio.fail "%s" msg

let pp_listing ppf t =
  Format.fprintf ppf "; program %s: %d instrs, %d blocks@." t.name
    (Array.length t.instrs) (Array.length t.blocks);
  Array.iteri
    (fun pc i ->
      if t.is_leader.(pc) then
        Format.fprintf ppf "BB%d:@." t.bb_of_pc.(pc);
      Format.fprintf ppf "  %4d: %a@." pc Isa.pp i)
    t.instrs
