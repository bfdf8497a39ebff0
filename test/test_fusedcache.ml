(* Differential tests for the segment-consuming (fused) tools: the
   cache model, the timing core and the ld/st mix.

   The fused allcache hook set ([Allcache_tool.hooks]) consumes
   [on_block_mems] segments and applies same-line / same-page repeat
   filters; the per-instruction reference ([Core_reference.Allcache])
   walks the hierarchy once per event.  Random memory-heavy programs are
   executed under both — the fused tool on the compiled tier (one
   segment per block) and pinned to the reference engine
   (single-instruction segments); every cache level's statistics, both
   TLBs, prefetch and write-back counters and the retired instruction
   count must be bit-identical — across replacement policies, with and
   without the next-line prefetcher, across fuel-split boundaries
   landing mid-block, and across a warming prefix. *)

open Sp_isa
open Sp_vm
open Sp_pin
open Sp_cache

(* ------------------------------------------------------------------ *)
(* Memory-heavy random programs: every terminator kind, plus a heavy
   dose of loads/stores/string-moves so the data-reference stream
   exercises line and page boundaries, and long-latency integer and FP
   ops whose extra cycles the timing core charges *)

let test_fuel = 400
let test_syscall n = ((n * 37) + 11) land 0xFF

let mem_prog_gen =
  QCheck.Gen.(
    int_range 4 40 >>= fun body_len ->
    let n = body_len + 1 in
    let target = int_range 0 (n - 1) in
    let reg = 0 -- 7 in
    (* bases both inside one page and spread across several *)
    let base = oneof [ int_range 0 256; int_range 0 20000 ] in
    let instr_gen =
      frequency
        [
          (3, map2 (fun rd imm -> Isa.Li (rd, imm)) reg base);
          ( 2,
            map3
              (fun op rd (r1, r2) -> Isa.Alu (op, rd, r1, r2))
              (oneofl [ Isa.Add; Isa.Sub; Isa.Xor; Isa.Mul; Isa.Div ])
              reg (pair reg reg) );
          ( 1,
            map3
              (fun op fd (f1, f2) -> Isa.Falu (op, fd, f1, f2))
              (oneofl [ Isa.Fadd; Isa.Fmul; Isa.Fdiv ])
              (0 -- 7)
              (pair (0 -- 7) (0 -- 7)) );
          ( 4,
            map3
              (fun rd rs off -> Isa.Load (rd, rs, off * 8))
              reg reg (int_range 0 64) );
          ( 4,
            map3
              (fun rv rb off -> Isa.Store (rv, rb, off * 8))
              reg reg (int_range 0 64) );
          (2, map2 (fun rd rs -> Isa.Movs (rd, rs)) reg reg);
          ( 1,
            map3
              (fun fd rs off -> Isa.Fload (fd, rs, off * 8))
              (0 -- 7) reg (int_range 0 64) );
          ( 1,
            map3
              (fun fv rb off -> Isa.Fstore (fv, rb, off * 8))
              (0 -- 7) reg (int_range 0 64) );
          ( 2,
            map3
              (fun c (r1, r2) t -> Isa.Branch (c, r1, r2, t))
              (oneofl [ Isa.Eq; Isa.Ne; Isa.Lt; Isa.Ge ])
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

(* ------------------------------------------------------------------ *)
(* One run of a program under one engine tier, with optional warming
   prefix and fuel-chunked resumption; everything observable about the
   cache simulation comes back in one comparable record *)

(* the fused tool fed one segment per block ([Fused], on the compiled
   tier) or one per instruction ([Fused_single], on the reference
   engine), and the per-instruction reference tool *)
type tier = Fused | Fused_single | Per_instr

type observed = {
  o_hier : Hierarchy.stats;
  o_itlb : Tlb.stats;
  o_dtlb : Tlb.stats;
  o_prefetches : int;
  o_writebacks : int * int * int;
  o_icount : int;
  o_outcome : int; (* 0 out-of-fuel, 1 halted, 2 stack error *)
}

let warm_fuel = 60

let outcome_of = function Interp.Halted -> 1 | Interp.Out_of_fuel -> 0

(* Run [p] on a fresh machine under [hooks]: an optional warming prefix
   of [warm_fuel] instructions with [set_warming] raised around it, then
   up to [test_fuel] measured instructions in [chunk]-sized runs, each
   completed run's retired count passed to [on_chunk].  Returns the
   retired count and the outcome. *)
let drive ?engine ?(on_chunk = ignore) ~hooks ~set_warming ~warm ~chunk p =
  let m = Interp.create ~entry:0 () in
  let outcome = ref 0 in
  let step fuel =
    let before = m.Interp.icount in
    match Interp.run ?engine ~hooks ~syscall:test_syscall ~fuel p m with
    | st ->
        outcome := outcome_of st;
        m.Interp.icount - before
    | exception Interp.Stack_error _ ->
        outcome := 2;
        0
  in
  if warm then begin
    set_warming true;
    ignore (step warm_fuel);
    set_warming false
  end;
  let left = ref test_fuel in
  while !left > 0 && !outcome = 0 do
    let f = min chunk !left in
    left := !left - f;
    let len = step f in
    if !outcome <> 2 then on_chunk len
  done;
  (m.Interp.icount, !outcome)

let run_tier tier ~policy ~prefetch ~warm ~chunk instrs =
  let p = Program.of_instrs instrs in
  let engine = if tier = Fused_single then Interp.Reference else Interp.Auto in
  let observe ~hooks ~set_warming hier itlb dtlb =
    let icount, outcome = drive ~engine ~hooks ~set_warming ~warm ~chunk p in
    {
      o_hier = Hierarchy.stats hier;
      o_itlb = itlb ();
      o_dtlb = dtlb ();
      o_prefetches = Hierarchy.prefetches hier;
      o_writebacks = Hierarchy.writebacks hier;
      o_icount = icount;
      o_outcome = outcome;
    }
  in
  match tier with
  | Per_instr ->
      let r = Core_reference.Allcache.create ~policy ~prefetch p in
      observe ~hooks:(Core_reference.Allcache.hooks r)
        ~set_warming:(Core_reference.Allcache.set_warming r)
        (Core_reference.Allcache.hierarchy r)
        (fun () -> Core_reference.Allcache.itlb_stats r)
        (fun () -> Core_reference.Allcache.dtlb_stats r)
  | Fused | Fused_single ->
      let tool = Allcache_tool.create ~policy ~prefetch p in
      observe ~hooks:(Allcache_tool.hooks tool)
        ~set_warming:(Allcache_tool.set_warming tool)
        (Allcache_tool.hierarchy tool)
        (fun () -> Allcache_tool.itlb_stats tool)
        (fun () -> Allcache_tool.dtlb_stats tool)

let scenario_print (instrs, (policy, prefetch, warm), chunk) =
  Printf.sprintf "len=%d policy=%s prefetch=%b warm=%b chunk=%d"
    (Array.length instrs)
    (match policy with
    | Cache.Lru -> "lru"
    | Cache.Fifo -> "fifo"
    | Cache.Random -> "random")
    prefetch warm chunk

let scenario_gen =
  QCheck.Gen.(
    triple mem_prog_gen
      (triple (oneofl [ Cache.Lru; Cache.Fifo; Cache.Random ]) bool bool)
      (int_range 1 17))

let prop_fused_matches_per_instr =
  QCheck.Test.make
    ~name:"fused cache tier bit-identical to per-instruction tier"
    ~count:250
    (QCheck.make ~print:scenario_print scenario_gen)
    (fun (instrs, (policy, prefetch, warm), chunk) ->
      let f = run_tier Fused ~policy ~prefetch ~warm ~chunk instrs in
      let i = run_tier Per_instr ~policy ~prefetch ~warm ~chunk instrs in
      let x = run_tier Fused_single ~policy ~prefetch ~warm ~chunk instrs in
      f = i && f = x)

(* ------------------------------------------------------------------ *)
(* Hand-checked absolute counts: both tiers must not merely agree with
   each other but with counts derivable from the ISA geometry (4-byte
   instructions, 32-byte lines, 4 kB pages, line-aligned code base) *)

let test_straightline_counts () =
  (* 40 straight Li + Halt = 41 fetches over 164 bytes = 6 lines, 1 page *)
  let instrs = Array.append (Array.make 40 (Isa.Li (0, 0))) [| Isa.Halt |] in
  List.iter
    (fun tier ->
      let o =
        run_tier tier ~policy:Cache.Lru ~prefetch:false ~warm:false ~chunk:1000
          instrs
      in
      Alcotest.(check int) "icount" 41 o.o_icount;
      Alcotest.(check int) "l1i accesses" 41 o.o_hier.Hierarchy.l1i.accesses;
      Alcotest.(check int) "l1i misses" 6 o.o_hier.Hierarchy.l1i.misses;
      Alcotest.(check int) "itlb accesses" 41 o.o_itlb.Tlb.accesses;
      Alcotest.(check int) "itlb walks" 1 o.o_itlb.Tlb.walks;
      Alcotest.(check int) "l1d accesses" 0 o.o_hier.Hierarchy.l1d.accesses)
    [ Fused; Per_instr; Fused_single ]

let test_same_line_loads () =
  (* r0 = 0; five loads of address 0: one L1D line, one data page *)
  let instrs =
    Array.append
      (Array.append [| Isa.Li (0, 0) |] (Array.make 5 (Isa.Load (1, 0, 0))))
      [| Isa.Halt |]
  in
  List.iter
    (fun tier ->
      let o =
        run_tier tier ~policy:Cache.Lru ~prefetch:false ~warm:false ~chunk:1000
          instrs
      in
      Alcotest.(check int) "l1d accesses" 5 o.o_hier.Hierarchy.l1d.accesses;
      Alcotest.(check int) "l1d misses" 1 o.o_hier.Hierarchy.l1d.misses;
      Alcotest.(check int) "dtlb accesses" 5 o.o_dtlb.Tlb.accesses;
      Alcotest.(check int) "dtlb walks" 1 o.o_dtlb.Tlb.walks)
    [ Fused; Per_instr; Fused_single ]

(* ------------------------------------------------------------------ *)
(* The report-level counters ride on Hierarchy.observe_stats; folding
   the two tiers' stats into the metrics registry must produce the
   same cache.* counter values *)

let cache_counter_names =
  [
    "cache.l1i.accesses"; "cache.l1i.misses";
    "cache.l1d.accesses"; "cache.l1d.misses";
    "cache.l2.accesses"; "cache.l2.misses";
    "cache.l3.accesses"; "cache.l3.misses";
  ]

let test_report_counters_identical () =
  let rng = Random.State.make [| 11 |] in
  let instrs = QCheck.Gen.generate1 ~rand:rng mem_prog_gen in
  let observe o =
    Sp_obs.Metrics.reset ();
    Hierarchy.observe_stats o.o_hier;
    let snap = Sp_obs.Metrics.stable_snapshot () in
    let vals =
      List.map (fun n -> Sp_obs.Metrics.counter_value snap n) cache_counter_names
    in
    Sp_obs.Metrics.reset ();
    vals
  in
  let f =
    run_tier Fused ~policy:Cache.Lru ~prefetch:false ~warm:false ~chunk:1000
      instrs
  in
  let i =
    run_tier Per_instr ~policy:Cache.Lru ~prefetch:false ~warm:false
      ~chunk:1000 instrs
  in
  List.iter2
    (fun a b ->
      Alcotest.(check (option (float 0.0))) "cache counter" a b)
    (observe f) (observe i)

(* ------------------------------------------------------------------ *)
(* The timing core and the ld/st mix on the same programs: the
   segment-consuming [Interval_core] and [Ldstmix] must reproduce the
   per-instruction references exactly — float stats to the bit — on
   the compiled tier and pinned to the reference engine
   (single-instruction segments), across fuel chunks and a warming
   prefix *)

let stats_bits (s : Sp_cpu.Interval_core.stats) =
  let b = Int64.bits_of_float in
  ( (s.instructions, s.branch_lookups, s.branch_mispredicts,
     Array.to_list s.level_hits),
    List.map b
      [ s.cycles; s.base_cycles; s.branch_stall_cycles;
        s.memory_stall_cycles ] )

let mem_classes = [ Isa.No_mem; Isa.Mem_r; Isa.Mem_w; Isa.Mem_rw ]

(* a ROB a few instructions deep puts the miss-overlap window's edge
   inside every generated program, so an off-by-one in the instruction
   position a reference sees changes the stall sum *)
let core_config rob =
  { Sp_cpu.Core_config.i7_3770_sim with rob_entries = rob }

let run_core_reference ~rob ~warm ~chunk p =
  let core = Core_reference.Core.create ~config:(core_config rob) p in
  let mix = Core_reference.Ldstmix.create () in
  let icount, outcome =
    drive
      ~hooks:
        (Hooks.seq (Core_reference.Core.hooks core)
           (Core_reference.Ldstmix.hooks mix))
      ~set_warming:(Core_reference.Core.set_warming core) ~warm ~chunk p
  in
  ( stats_bits (Core_reference.Core.stats core),
    List.map (Core_reference.Ldstmix.count mix) mem_classes,
    icount,
    outcome )

let run_core engine ~rob ~warm ~chunk p =
  let core = Sp_cpu.Interval_core.create ~config:(core_config rob) p in
  let mix = Ldstmix.create () in
  let hooks =
    Hooks.seq (Sp_cpu.Interval_core.hooks core) (Ldstmix.hooks mix)
  in
  let icount, outcome =
    drive ~engine ~hooks ~set_warming:(Sp_cpu.Interval_core.set_warming core)
      ~warm ~chunk p
  in
  ( stats_bits (Sp_cpu.Interval_core.stats core),
    List.map (Ldstmix.count mix) mem_classes,
    icount,
    outcome )

let core_scenario_gen =
  QCheck.Gen.(quad mem_prog_gen (int_range 1 12) bool (int_range 1 17))

let core_scenario_print (instrs, rob, warm, chunk) =
  Printf.sprintf "len=%d rob=%d warm=%b chunk=%d" (Array.length instrs) rob
    warm chunk

let prop_core_matches_reference =
  QCheck.Test.make
    ~name:"block-level core and ldstmix bit-identical to per-instruction"
    ~count:250
    (QCheck.make ~print:core_scenario_print core_scenario_gen)
    (fun (instrs, rob, warm, chunk) ->
      let p = Program.of_instrs instrs in
      let expected = run_core_reference ~rob ~warm ~chunk p in
      List.for_all
        (fun engine -> run_core engine ~rob ~warm ~chunk p = expected)
        [ Interp.Auto; Interp.Reference ])

(* Slice_timer: every slice's cycles are the reference core's cycle
   delta between the same fuel boundaries, with the timer's own run
   split mid-slice to exercise resumption *)
let reference_slice_cpis ~rob ~warm ~slice_len p =
  let core = Core_reference.Core.create ~config:(core_config rob) p in
  let cpis = ref [] and last = ref 0.0 and partial = ref 0 in
  let close len =
    let c = Core_reference.Core.cycles core in
    cpis := Int64.bits_of_float ((c -. !last) /. float_of_int len) :: !cpis;
    last := c
  in
  let _, outcome =
    drive ~hooks:(Core_reference.Core.hooks core)
      ~set_warming:(Core_reference.Core.set_warming core) ~warm
      ~chunk:slice_len
      ~on_chunk:(fun len ->
        if len = slice_len then close len else partial := len)
      p
  in
  (* the timer's [finish]: a trailing slice of at least half length *)
  if outcome <> 2 && !partial > 0 && !partial >= slice_len / 2 then
    close !partial;
  List.rev !cpis

let timer_slice_cpis ~rob ~warm ~slice_len p =
  let core = Sp_cpu.Interval_core.create ~config:(core_config rob) p in
  let timer = Sp_cpu.Slice_timer.create ~slice_len core in
  let m = Interp.create ~entry:0 () in
  (try
     let go =
       if not warm then true
       else begin
         Sp_cpu.Interval_core.set_warming core true;
         let st =
           Interp.run ~hooks:(Sp_cpu.Interval_core.hooks core)
             ~syscall:test_syscall ~fuel:warm_fuel p m
         in
         Sp_cpu.Interval_core.set_warming core false;
         st = Interp.Out_of_fuel
       end
     in
     if go then begin
       let first = test_fuel / 3 in
       let run fuel =
         Sp_cpu.Slice_timer.run ~syscall:test_syscall ~fuel timer p m
       in
       if run first = Interp.Out_of_fuel then
         ignore (run (test_fuel - first));
       Sp_cpu.Slice_timer.finish timer
     end
   with Interp.Stack_error _ -> ());
  List.map Int64.bits_of_float
    (Array.to_list (Sp_cpu.Slice_timer.slice_cpis timer))

let prop_slice_timer_matches_reference =
  QCheck.Test.make ~name:"slice timer slices exactly at fuel boundaries"
    ~count:200
    (QCheck.make ~print:core_scenario_print core_scenario_gen)
    (fun (instrs, rob, warm, slice_len) ->
      let p = Program.of_instrs instrs in
      reference_slice_cpis ~rob ~warm ~slice_len p
      = timer_slice_cpis ~rob ~warm ~slice_len p)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_fused_matches_per_instr;
    Alcotest.test_case "straightline fetch counts" `Quick
      test_straightline_counts;
    Alcotest.test_case "same-line load counts" `Quick test_same_line_loads;
    Alcotest.test_case "report counters identical across tiers" `Quick
      test_report_counters_identical;
    QCheck_alcotest.to_alcotest prop_core_matches_reference;
    QCheck_alcotest.to_alcotest prop_slice_timer_matches_reference;
  ]
