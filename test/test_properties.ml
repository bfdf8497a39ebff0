(* Property-based and differential tests across the libraries:
   model-based memory checking, a reference evaluator for straight-line
   code, schedule/weights invariants, cache invariants. *)

open Sp_isa
open Sp_vm

(* ------------------------------------------------------------------ *)
(* Differential test: straight-line ALU programs against a reference
   evaluator written independently of the interpreter. *)

let alu_op_gen =
  QCheck.Gen.oneofl
    [ Isa.Add; Isa.Sub; Isa.Mul; Isa.Div; Isa.Rem; Isa.And; Isa.Or; Isa.Xor; Isa.Shl; Isa.Shr ]

let straightline_gen =
  QCheck.Gen.(
    list_size (1 -- 40)
      (oneof
         [
           map3
             (fun op rd (r1, r2) -> Isa.Alu (op, rd, r1, r2))
             alu_op_gen (0 -- 14)
             (pair (0 -- 14) (0 -- 14));
           map3
             (fun op rd (r1, imm) -> Isa.Alui (op, rd, r1, imm))
             alu_op_gen (0 -- 14)
             (pair (0 -- 14) (int_range (-1000) 1000));
           map2 (fun rd imm -> Isa.Li (rd, imm)) (0 -- 14) (int_range (-10000) 10000);
           map2 (fun rd rs -> Isa.Mov (rd, rs)) (0 -- 14) (0 -- 14);
         ]))

(* the reference semantics, written from the ISA documentation *)
let reference_eval instrs =
  let regs = Array.make 16 0 in
  let alu op a b =
    match op with
    | Isa.Add -> a + b
    | Isa.Sub -> a - b
    | Isa.Mul -> a * b
    | Isa.Div -> if b = 0 then 0 else a / b
    | Isa.Rem -> if b = 0 then 0 else a mod b
    | Isa.And -> a land b
    | Isa.Or -> a lor b
    | Isa.Xor -> a lxor b
    | Isa.Shl -> a lsl (b land 63)
    | Isa.Shr -> a lsr (b land 63)
  in
  List.iter
    (fun i ->
      match i with
      | Isa.Alu (op, rd, r1, r2) -> regs.(rd) <- alu op regs.(r1) regs.(r2)
      | Isa.Alui (op, rd, r1, imm) -> regs.(rd) <- alu op regs.(r1) imm
      | Isa.Li (rd, imm) -> regs.(rd) <- imm
      | Isa.Mov (rd, rs) -> regs.(rd) <- regs.(rs)
      | _ -> assert false)
    instrs;
  regs

let prop_interp_matches_reference =
  QCheck.Test.make ~name:"interpreter matches reference on straight-line code"
    ~count:300
    (QCheck.make straightline_gen)
    (fun instrs ->
      let prog = Program.of_instrs (Array.of_list (instrs @ [ Isa.Halt ])) in
      let m = Interp.create ~entry:0 () in
      ignore (Interp.run prog m);
      let expected = reference_eval instrs in
      Array.for_all2 ( = ) expected m.Interp.regs
      && m.Interp.icount = List.length instrs + 1)

(* ------------------------------------------------------------------ *)
(* Model-based memory test against a Hashtbl reference *)

let prop_memory_model =
  QCheck.Test.make ~name:"memory matches Hashtbl model" ~count:200
    QCheck.(
      list_of_size Gen.(1 -- 100)
        (pair (int_range 0 (1 lsl 20)) (pair bool int)))
    (fun ops ->
      let mem = Memory.create () in
      let model : (int, int) Hashtbl.t = Hashtbl.create 64 in
      List.for_all
        (fun (addr, (is_store, v)) ->
          let addr = addr land lnot 7 in
          if is_store then begin
            Memory.store mem addr v;
            Hashtbl.replace model addr v;
            true
          end
          else
            Memory.load mem addr
            = Option.value ~default:0 (Hashtbl.find_opt model addr))
        ops)

(* ------------------------------------------------------------------ *)
(* Weights / schedule invariants *)

let prop_weights_fit =
  QCheck.Test.make ~name:"Weights.fit invariants" ~count:100
    QCheck.(pair (int_range 2 40) (int_range 1 40))
    (fun (n, n90_raw) ->
      let n90 = max 1 (min n n90_raw) in
      let w = Sp_workloads.Weights.fit ~n ~n90 in
      Array.length w = n
      && Float.abs (Sp_util.Stats.sum w -. 1.0) < 1e-9
      && Array.for_all (fun x -> x > 0.0) w
      (* sorted descending *)
      && Array.for_all
           (fun i -> w.(i) >= w.(i + 1) -. 1e-12)
           (Array.init (n - 1) (fun i -> i)))

let prop_schedule_conserves =
  QCheck.Test.make ~name:"Schedule totals track weights" ~count:100
    QCheck.(pair small_int (int_range 2 20))
    (fun (seed, n) ->
      let w = Sp_workloads.Weights.fit ~n ~n90:(max 1 (n / 2)) in
      let segs =
        Sp_workloads.Schedule.make ~seed ~total_slices:500 ~weights:w
      in
      let total = Sp_workloads.Schedule.total segs in
      abs (total - 500) <= n
      && Array.for_all
           (fun i -> Sp_workloads.Schedule.slices_of_phase segs i >= 1)
           (Array.init n (fun i -> i)))

(* ------------------------------------------------------------------ *)
(* Cache invariants *)

let prop_lru_mru_safe =
  QCheck.Test.make ~name:"LRU never evicts the just-accessed line" ~count:200
    QCheck.(list_of_size Gen.(2 -- 100) (int_range 0 10_000))
    (fun addrs ->
      let cfg =
        Sp_cache.Config.level ~name:"t" ~size_kb:1 ~assoc:2 ~line_bytes:32
      in
      let c = Sp_cache.Cache.create cfg in
      List.for_all
        (fun a ->
          let addr = a * 8 in
          ignore (Sp_cache.Cache.access c addr);
          (* immediate re-access must hit *)
          Sp_cache.Cache.access c addr)
        addrs)

let prop_warm_equals_access_state =
  QCheck.Test.make ~name:"warm and access leave identical residency" ~count:100
    QCheck.(list_of_size Gen.(1 -- 80) (int_range 0 4_000))
    (fun addrs ->
      let cfg =
        Sp_cache.Config.level ~name:"t" ~size_kb:1 ~assoc:4 ~line_bytes:32
      in
      let a = Sp_cache.Cache.create cfg in
      let b = Sp_cache.Cache.create cfg in
      List.iter
        (fun x ->
          ignore (Sp_cache.Cache.access a (x * 16));
          ignore (Sp_cache.Cache.warm b (x * 16)))
        addrs;
      (* both caches now answer identically *)
      List.for_all
        (fun x ->
          Sp_cache.Cache.access a (x * 16) = Sp_cache.Cache.access b (x * 16))
        addrs)

let prop_reuse_estimate_bounded =
  QCheck.Test.make ~name:"reuse estimate in [0,1] and monotone in capacity"
    ~count:100
    QCheck.(list_of_size Gen.(1 -- 200) (int_range 0 500))
    (fun addrs ->
      let r = Sp_cache.Reuse.create ~line_bytes:64 () in
      List.iter (fun a -> Sp_cache.Reuse.access r (a * 64)) addrs;
      let e1 = Sp_cache.Reuse.miss_rate_estimate r ~cache_lines:4 in
      let e2 = Sp_cache.Reuse.miss_rate_estimate r ~cache_lines:64 in
      let e3 = Sp_cache.Reuse.miss_rate_estimate r ~cache_lines:1024 in
      e1 >= 0.0 && e1 <= 1.0 && e1 >= e2 -. 1e-9 && e2 >= e3 -. 1e-9)

(* ------------------------------------------------------------------ *)
(* BBV invariants on random kernel programs *)

let prop_bbv_mass =
  QCheck.Test.make ~name:"BBV mass equals retired instructions" ~count:30
    QCheck.(pair (int_range 0 16) (int_range 50 400))
    (fun (kseed, slice_len) ->
      let kernels = Array.of_list Sp_workloads.Kernel.all in
      let k = kernels.(kseed mod Array.length kernels) in
      let p =
        Sp_workloads.Kernel.normalize
          { Sp_workloads.Kernel.base = 0x9000; elems = 128; stride = 1;
            chunk = 16; seed = kseed }
      in
      let a = Asm.create () in
      Asm.li a 15 0;
      let rtl = Sp_workloads.Rtl.emit a in
      k.Sp_workloads.Kernel.emit_init a rtl p;
      let fn = Asm.new_label a in
      Asm.li a 12 3;
      let top = Asm.here a in
      Asm.call a fn;
      Asm.alui a Sub 12 12 1;
      Asm.branch a Gt 12 15 top;
      Asm.halt a;
      Asm.place a fn;
      k.Sp_workloads.Kernel.emit_body a p;
      Asm.ret a;
      let prog = Asm.assemble a in
      let bbv = Sp_pin.Bbv_tool.create ~slice_len prog in
      let run = Sp_pin.Pin.run_fresh ~tools:[ Sp_pin.Bbv_tool.hooks bbv ] prog in
      Sp_pin.Bbv_tool.finish bbv;
      let mass =
        Array.fold_left
          (fun acc (s : Sp_pin.Bbv_tool.slice) ->
            acc + Array.fold_left (fun a (_, c) -> a + c) 0 s.Sp_pin.Bbv_tool.bbv)
          0
          (Sp_pin.Bbv_tool.slices bbv)
      in
      mass = run.Sp_pin.Pin.retired)

(* ------------------------------------------------------------------ *)
(* Replay fidelity on random regions of a real benchmark *)

let replay_fidelity_fixture =
  lazy
    (let spec = Sp_workloads.Suite.find "620.omnetpp_s" in
     let built = Sp_workloads.Benchspec.build ~slices_scale:0.02 spec in
     let whole =
       Sp_pinball.Logger.log_whole ~benchmark:"fidelity"
         built.Sp_workloads.Benchspec.program
     in
     whole)

let prop_region_replay_fidelity =
  QCheck.Test.make ~name:"random regions replay to identical mixes" ~count:15
    QCheck.(pair (int_range 0 1_000_000) (int_range 200 2_000))
    (fun (start_raw, len) ->
      let whole = Lazy.force replay_fidelity_fixture in
      let total = whole.Sp_pinball.Logger.total_insns in
      let start = start_raw mod max 1 (total - len) in
      let point =
        {
          Sp_simpoint.Simpoints.cluster = 0;
          slice_index = 0;
          start_icount = start;
          length = len;
          weight = 1.0;
        }
      in
      let regions = Scan_reference.cold_regions whole [| point |] in
      let mix1 = Sp_pin.Ldstmix.create () in
      ignore
        (Sp_pinball.Replayer.replay ~tools:[ Sp_pin.Ldstmix.hooks mix1 ]
           regions.(0));
      (* replay twice: identical *)
      let mix2 = Sp_pin.Ldstmix.create () in
      ignore
        (Sp_pinball.Replayer.replay ~tools:[ Sp_pin.Ldstmix.hooks mix2 ]
           regions.(0));
      List.for_all
        (fun cls -> Sp_pin.Ldstmix.count mix1 cls = Sp_pin.Ldstmix.count mix2 cls)
        Isa.all_mem_classes)

(* ------------------------------------------------------------------ *)
(* CSV *)

let test_csv () =
  let t = Sp_util.Table.create ~title:"T" [ ("a", Sp_util.Table.Left); ("b", Sp_util.Table.Right) ] in
  Sp_util.Table.add_row t [ "x,y"; "1" ];
  Sp_util.Table.add_rule t;
  Sp_util.Table.add_row t [ "quote\"here"; "2" ];
  let csv = Sp_util.Table.to_csv t in
  Alcotest.(check string) "csv"
    "a,b\n\"x,y\",1\n\"quote\"\"here\",2\n" csv;
  Alcotest.(check (option string)) "title" (Some "T") (Sp_util.Table.title t)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_interp_matches_reference;
    QCheck_alcotest.to_alcotest prop_memory_model;
    QCheck_alcotest.to_alcotest prop_weights_fit;
    QCheck_alcotest.to_alcotest prop_schedule_conserves;
    QCheck_alcotest.to_alcotest prop_lru_mru_safe;
    QCheck_alcotest.to_alcotest prop_warm_equals_access_state;
    QCheck_alcotest.to_alcotest prop_reuse_estimate_bounded;
    QCheck_alcotest.to_alcotest prop_bbv_mass;
    QCheck_alcotest.to_alcotest prop_region_replay_fidelity;
    Alcotest.test_case "csv rendering" `Quick test_csv;
  ]
