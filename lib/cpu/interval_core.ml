open Sp_isa
open Sp_vm
open Sp_cache

type stats = {
  instructions : int;
  cycles : float;
  base_cycles : float;
  branch_stall_cycles : float;
  memory_stall_cycles : float;
  branch_lookups : int;
  branch_mispredicts : int;
  level_hits : int array;
}

type t = {
  cfg : Core_config.t;
  hier : Hierarchy.t;
  bp : Branch_predictor.t;
  code_base : int;
  blocks : Program.block array;
  kinds : int array;  (* [Isa.kind_code] per pc *)
  dispatch_cost : float;
  kind_extra : float array;
  rob_window : int;  (* instructions the ROB can hold in flight *)
  mutable warming : bool;
  mutable instructions : int;
  mutable base_cycles : float;
  mutable branch_stall : float;
  mutable mem_stall : float;
  level_hits : int array;
  mutable last_miss_line : int;
  mutable last_miss_icount : int;
}

(* Exposed fraction of a long-latency operation that the out-of-order
   window cannot hide, per micro-op kind. *)
let extra_of_kind kind =
  match Isa.kind_of_code kind with
  | K_div -> 4.0
  | K_fdiv -> 6.0
  | K_mul -> 0.3
  | K_fmul -> 0.5
  | K_falu -> 0.3
  | K_alu | K_load | K_store | K_movs | K_branch | K_jump | K_sys | K_halt ->
      0.0

let create ?(config = Core_config.i7_3770) (prog : Program.t) =
  {
    cfg = config;
    hier = Hierarchy.create config.caches;
    bp = Branch_predictor.create ();
    code_base = prog.code_base;
    blocks = prog.blocks;
    kinds = prog.kinds;
    dispatch_cost = 1.0 /. float_of_int config.dispatch_width;
    kind_extra = Array.init Isa.num_kinds extra_of_kind;
    rob_window = config.rob_entries;
    warming = false;
    instructions = 0;
    base_cycles = 0.0;
    branch_stall = 0.0;
    mem_stall = 0.0;
    level_hits = Array.make 4 0;
    last_miss_line = min_int;
    last_miss_icount = min_int;
  }

let latency t (where : Hierarchy.hit_level) =
  match where with
  | Hierarchy.L1 -> t.cfg.l1_latency
  | Hierarchy.L2 -> t.cfg.l2_latency
  | Hierarchy.L3 -> t.cfg.l3_latency
  | Hierarchy.Memory -> t.cfg.memory_latency

(* Miss-latency exposure: streams (next-line misses inside the ROB
   window) overlap almost fully; independent scattered misses inside the
   window overlap partially; isolated or dependent-looking misses pay in
   full minus what the window hides. *)
let miss_exposure t ~addr ~where =
  match (where : Hierarchy.hit_level) with
  | Hierarchy.L1 -> 0.0
  | Hierarchy.L2 | Hierarchy.L3 | Hierarchy.Memory ->
      let line = addr lsr 6 in
      let gap = t.instructions - t.last_miss_icount in
      let factor =
        if gap <= t.rob_window && abs (line - t.last_miss_line) <= 2 then 0.15
        else if gap <= t.rob_window then 0.5
        else 1.0
      in
      t.last_miss_line <- line;
      t.last_miss_icount <- t.instructions;
      float_of_int (latency t where) *. factor

let on_access t ~is_write addr =
  let where =
    if is_write then Hierarchy.write_where t.hier addr
    else Hierarchy.read_where t.hier addr
  in
  if not t.warming then begin
    let cls = Hierarchy.latency_class where in
    t.level_hits.(cls) <- t.level_hits.(cls) + 1;
    let exposure = miss_exposure t ~addr ~where in
    (* stores retire through the store buffer: half exposure *)
    let exposure = if is_write then exposure *. 0.5 else exposure in
    t.mem_stall <- t.mem_stall +. exposure
  end

(* One [on_block_mems] segment: each reference sees [instructions]
   counting its own instruction, and base cycles are summed per pc in
   order, exactly as per-instruction delivery would — every statistic,
   floats included, is bit-identical under any segmentation. *)
let process t pc0 n offs addrs nrefs =
  let base = t.instructions in
  for r = 0 to nrefs - 1 do
    if not t.warming then
      t.instructions <- base + Array.unsafe_get offs r + 1;
    let v = Array.unsafe_get addrs r in
    on_access t ~is_write:(v land 1 <> 0) (v asr 1)
  done;
  if not t.warming then begin
    t.instructions <- base + n;
    let cycles = ref t.base_cycles in
    for pc = pc0 to pc0 + n - 1 do
      cycles :=
        !cycles +. t.dispatch_cost
        +. Array.unsafe_get t.kind_extra (Array.unsafe_get t.kinds pc)
    done;
    t.base_cycles <- !cycles
  end

let hooks t =
  {
    Hooks.nil with
    Hooks.on_block =
      (fun bb ->
        (* fetch at block granularity; instruction lines are hot, so
           modelling per-block fetch keeps the i-side realistic at a
           fraction of the lookup cost *)
        let leader = (Array.unsafe_get t.blocks bb).Program.start_pc in
        ignore
          (Hierarchy.fetch_where t.hier
             (t.code_base + (leader * Isa.bytes_per_instr))));
    on_block_mems =
      (fun pc0 n offs addrs nrefs -> process t pc0 n offs addrs nrefs);
    on_branch =
      (fun pc taken ->
        if t.warming then Branch_predictor.observe t.bp ~pc ~taken
        else if not (Branch_predictor.predict_and_update t.bp ~pc ~taken) then
          t.branch_stall <-
            t.branch_stall +. float_of_int t.cfg.branch_penalty);
  }

let cycles t = t.base_cycles +. t.branch_stall +. t.mem_stall

let instructions t = t.instructions

let cpi t =
  if t.instructions = 0 then 0.0 else cycles t /. float_of_int t.instructions

let cpi_of_stats (s : stats) =
  if s.instructions = 0 then 0.0
  else s.cycles /. float_of_int s.instructions

let stats t =
  {
    instructions = t.instructions;
    cycles = cycles t;
    base_cycles = t.base_cycles;
    branch_stall_cycles = t.branch_stall;
    memory_stall_cycles = t.mem_stall;
    branch_lookups = Branch_predictor.lookups t.bp;
    branch_mispredicts = Branch_predictor.mispredicts t.bp;
    level_hits = Array.copy t.level_hits;
  }

let set_warming t b =
  t.warming <- b;
  Hierarchy.set_warming t.hier b

let reset_state t =
  t.instructions <- 0;
  t.base_cycles <- 0.0;
  t.branch_stall <- 0.0;
  t.mem_stall <- 0.0;
  Array.fill t.level_hits 0 4 0;
  Hierarchy.reset_stats t.hier;
  Hierarchy.reset_state t.hier;
  Branch_predictor.reset_state t.bp;
  t.last_miss_line <- min_int;
  t.last_miss_icount <- min_int

let seconds t = cycles t /. (t.cfg.freq_ghz *. 1e9)
