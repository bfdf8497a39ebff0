(* Per-instruction reference models: the differential references the
   block-level tools in [lib/] are checked against.

   Every model sees one callback per event — [on_instr] per retired
   instruction, [on_read]/[on_write] per data reference — and are built
   only on the public [Hierarchy] / [Tlb] / [Branch_predictor] /
   [Core_config] API, so they share no code with the tools they check:

   - [Core] is the interval timing model, instruction by instruction;
     [Interval_core] must reproduce its statistics bit for bit (floats
     included) from [on_block_mems] segments.
   - [Allcache] walks the TLBs and the hierarchy once per event, with
     no repeat filters; [Allcache_tool]'s fused segment consumer must
     reproduce its statistics exactly.
   - [Ldstmix] classifies each retired instruction by its static kind;
     [Sp_pin.Ldstmix] must reproduce its counts from segment
     references alone. *)

open Sp_isa
open Sp_vm
open Sp_cache
open Sp_cpu

module Core = struct
  type t = {
    cfg : Core_config.t;
    hier : Hierarchy.t;
    bp : Branch_predictor.t;
    code_base : int;
    blocks : Program.block array;
    mutable warming : bool;
    mutable instructions : int;
    mutable base_cycles : float;
    mutable branch_stall : float;
    mutable mem_stall : float;
    level_hits : int array;
    mutable last_miss_line : int;
    mutable last_miss_icount : int;
  }

  let create ~(config : Core_config.t) (prog : Program.t) =
    {
      cfg = config;
      hier = Hierarchy.create config.caches;
      bp = Branch_predictor.create ();
      code_base = prog.code_base;
      blocks = prog.blocks;
      warming = false;
      instructions = 0;
      base_cycles = 0.0;
      branch_stall = 0.0;
      mem_stall = 0.0;
      level_hits = Array.make 4 0;
      last_miss_line = min_int;
      last_miss_icount = min_int;
    }

  (* exposed latency of a long-latency micro-op kind *)
  let extra kind =
    match Isa.kind_of_code kind with
    | K_div -> 4.0
    | K_fdiv -> 6.0
    | K_mul -> 0.3
    | K_fmul -> 0.5
    | K_falu -> 0.3
    | K_alu | K_load | K_store | K_movs | K_branch | K_jump | K_sys | K_halt
      ->
        0.0

  let latency t : Hierarchy.hit_level -> int = function
    | L1 -> t.cfg.l1_latency
    | L2 -> t.cfg.l2_latency
    | L3 -> t.cfg.l3_latency
    | Memory -> t.cfg.memory_latency

  let access t ~is_write addr =
    let where =
      if is_write then Hierarchy.write_where t.hier addr
      else Hierarchy.read_where t.hier addr
    in
    if not t.warming then begin
      let cls = Hierarchy.latency_class where in
      t.level_hits.(cls) <- t.level_hits.(cls) + 1;
      let exposure =
        match where with
        | L1 -> 0.0
        | L2 | L3 | Memory ->
            let line = addr lsr 6 in
            let gap = t.instructions - t.last_miss_icount in
            let factor =
              if gap <= t.cfg.rob_entries && abs (line - t.last_miss_line) <= 2
              then 0.15
              else if gap <= t.cfg.rob_entries then 0.5
              else 1.0
            in
            t.last_miss_line <- line;
            t.last_miss_icount <- t.instructions;
            float_of_int (latency t where) *. factor
      in
      let exposure = if is_write then exposure *. 0.5 else exposure in
      t.mem_stall <- t.mem_stall +. exposure
    end

  let hooks t =
    let dispatch_cost = 1.0 /. float_of_int t.cfg.dispatch_width in
    {
      Hooks.nil with
      Hooks.on_instr =
        (fun _pc kind ->
          if not t.warming then begin
            t.instructions <- t.instructions + 1;
            t.base_cycles <- t.base_cycles +. dispatch_cost +. extra kind
          end);
      on_block =
        (fun bb ->
          ignore
            (Hierarchy.fetch_where t.hier
               (t.code_base
               + (t.blocks.(bb).Program.start_pc * Isa.bytes_per_instr))));
      on_read = (fun addr -> access t ~is_write:false addr);
      on_write = (fun addr -> access t ~is_write:true addr);
      on_branch =
        (fun pc taken ->
          if t.warming then Branch_predictor.observe t.bp ~pc ~taken
          else if not (Branch_predictor.predict_and_update t.bp ~pc ~taken)
          then
            t.branch_stall <-
              t.branch_stall +. float_of_int t.cfg.branch_penalty);
    }

  let set_warming t b =
    t.warming <- b;
    Hierarchy.set_warming t.hier b

  let cycles t = t.base_cycles +. t.branch_stall +. t.mem_stall

  let stats t =
    {
      Interval_core.instructions = t.instructions;
      cycles = cycles t;
      base_cycles = t.base_cycles;
      branch_stall_cycles = t.branch_stall;
      memory_stall_cycles = t.mem_stall;
      branch_lookups = Branch_predictor.lookups t.bp;
      branch_mispredicts = Branch_predictor.mispredicts t.bp;
      level_hits = Array.copy t.level_hits;
    }
end

module Allcache = struct
  type t = {
    hier : Hierarchy.t;
    itlb : Tlb.t;
    dtlb : Tlb.t;
    code_base : int;
    mutable warming : bool;
  }

  let create ?(config = Config.allcache_table1) ?policy ?(prefetch = false)
      (prog : Program.t) =
    {
      hier = Hierarchy.create ?policy ~next_line_prefetch:prefetch config;
      itlb = Tlb.create ~level2:Tlb.stlb_default Tlb.itlb_default;
      dtlb = Tlb.create ~level2:Tlb.stlb_default Tlb.dtlb_default;
      code_base = prog.code_base;
      warming = false;
    }

  let tlb t tlb addr =
    if t.warming then Tlb.warm tlb addr else Tlb.access tlb addr

  let hooks t =
    {
      Hooks.nil with
      Hooks.on_instr =
        (fun pc _kind ->
          let addr = t.code_base + (pc * Isa.bytes_per_instr) in
          tlb t t.itlb addr;
          Hierarchy.fetch t.hier addr);
      on_read =
        (fun addr ->
          tlb t t.dtlb addr;
          Hierarchy.read t.hier addr);
      on_write =
        (fun addr ->
          tlb t t.dtlb addr;
          Hierarchy.write t.hier addr);
    }

  let set_warming t b =
    t.warming <- b;
    Hierarchy.set_warming t.hier b

  let hierarchy t = t.hier
  let itlb_stats t = Tlb.stats t.itlb
  let dtlb_stats t = Tlb.stats t.dtlb
end

module Ldstmix = struct
  type t = int array  (* indexed by [Isa.mem_class_code] *)

  let create () : t = Array.make 4 0

  let class_of kind : Isa.mem_class =
    match Isa.kind_of_code kind with
    | K_load -> Mem_r
    | K_store -> Mem_w
    | K_movs -> Mem_rw
    | K_alu | K_mul | K_div | K_falu | K_fmul | K_fdiv | K_branch | K_jump
    | K_sys | K_halt ->
        No_mem

  let hooks (t : t) =
    {
      Hooks.nil with
      Hooks.on_instr =
        (fun _pc kind ->
          let c = Isa.mem_class_code (class_of kind) in
          t.(c) <- t.(c) + 1);
    }

  let count (t : t) cls = t.(Isa.mem_class_code cls)
end
