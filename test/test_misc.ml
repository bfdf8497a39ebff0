(* Final coverage batch: ROI detection, address masking, time-model
   ordering, normalisation invariants, CPI-stack consistency. *)

open Sp_vm

(* ------------------------------------------------------------------ *)
(* ROI tool *)

let test_roi_detection () =
  let a = Asm.create () in
  Asm.li a 1 100;
  let top = Asm.here a in
  Asm.alui a Sub 1 1 1;
  Asm.branch a Gt 1 15 top;
  (* the "driver" starts here, after 1 + 200 init instructions *)
  let roi = Asm.position a in
  Asm.li a 2 7;
  Asm.halt a;
  let prog = Asm.assemble a in
  let tool = Sp_pin.Roi_tool.create ~target_pc:roi in
  ignore (Sp_pin.Pin.run_fresh ~tools:[ Sp_pin.Roi_tool.hooks tool ] prog);
  Alcotest.(check (option int)) "roi offset" (Some 201)
    (Sp_pin.Roi_tool.reached_at tool)

let test_roi_unreached () =
  let prog = Program.of_instrs [| Sp_isa.Isa.Halt |] in
  let tool = Sp_pin.Roi_tool.create ~target_pc:12345 in
  ignore (Sp_pin.Pin.run_fresh ~tools:[ Sp_pin.Roi_tool.hooks tool ] prog);
  Alcotest.(check (option int)) "never" None (Sp_pin.Roi_tool.reached_at tool)

let test_benchspec_roi_pc () =
  let spec = Sp_workloads.Suite.find "620.omnetpp_s" in
  let built = Sp_workloads.Benchspec.build ~slices_scale:0.01 spec in
  let roi_pc = built.Sp_workloads.Benchspec.roi_start_pc in
  Alcotest.(check bool) "roi pc in range" true
    (roi_pc > 0
    && roi_pc < Array.length built.Sp_workloads.Benchspec.program.Program.instrs);
  (* everything at/after the ROI start and before the phase functions is
     driver code: the detector must fire after the init instructions *)
  let tool = Sp_pin.Roi_tool.create ~target_pc:roi_pc in
  ignore
    (Sp_pin.Pin.run_fresh ~tools:[ Sp_pin.Roi_tool.hooks tool ]
       built.Sp_workloads.Benchspec.program);
  match Sp_pin.Roi_tool.reached_at tool with
  | None -> Alcotest.fail "ROI never reached"
  | Some n -> Alcotest.(check bool) "init is non-trivial" true (n > 100)

(* ------------------------------------------------------------------ *)
(* Address masking *)

let test_memory_negative_address_masked () =
  let m = Memory.create () in
  (* negative addresses mask into the 38-bit space instead of crashing *)
  Memory.store m (-8) 42;
  Alcotest.(check int) "read back through mask" 42 (Memory.load m (-8))

let test_interp_wild_address () =
  (* a load through an uninitialised (zero) register plus a huge offset
     must not crash the interpreter *)
  let prog =
    Program.of_instrs
      [| Sp_isa.Isa.Li (1, max_int); Sp_isa.Isa.Load (2, 1, 16); Sp_isa.Isa.Halt |]
  in
  let m = Interp.create ~entry:0 () in
  let status = Interp.run prog m in
  Alcotest.(check bool) "survives" true (status = Interp.Halted)

(* ------------------------------------------------------------------ *)
(* Time model ordering *)

let test_timemodel_ordering () =
  let open Sp_util.Timemodel in
  Alcotest.(check bool) "native fastest" true
    (replay_rate Native > replay_rate Logging);
  Alcotest.(check bool) "logging faster than tool replay" true
    (replay_rate Logging > replay_rate Whole);
  Alcotest.(check bool) "regional replay slightly faster than whole" true
    (replay_rate Regional > replay_rate Whole)

(* ------------------------------------------------------------------ *)
(* Kernel normalisation *)

let prop_normalize_invariants =
  QCheck.Test.make ~name:"Kernel.normalize invariants" ~count:200
    QCheck.(triple small_int small_int small_int)
    (fun (elems, stride, chunk) ->
      let p =
        Sp_workloads.Kernel.normalize
          { Sp_workloads.Kernel.base = 0; elems; stride; chunk; seed = 1 }
      in
      p.Sp_workloads.Kernel.elems >= 16
      && p.Sp_workloads.Kernel.elems mod 4 = 0
      && p.Sp_workloads.Kernel.stride >= 1
      && p.Sp_workloads.Kernel.chunk >= 4
      && p.Sp_workloads.Kernel.chunk mod 4 = 0)

let test_chase_stride () =
  (* benchspec assigns line-spaced entries to pointer-chase phases *)
  let spec = Sp_workloads.Suite.find "505.mcf_r" in
  let built = Sp_workloads.Benchspec.build ~slices_scale:0.01 spec in
  Array.iter
    (fun (ph : Sp_workloads.Benchspec.phase) ->
      if ph.kernel.Sp_workloads.Kernel.name = "pointer_chase" then
        Alcotest.(check int) "chase stride" 4
          ph.params.Sp_workloads.Kernel.stride)
    built.Sp_workloads.Benchspec.phases

let test_call_cost_positive () =
  let spec = Sp_workloads.Suite.find "505.mcf_r" in
  let built = Sp_workloads.Benchspec.build ~slices_scale:0.01 spec in
  Array.iter
    (fun (ph : Sp_workloads.Benchspec.phase) ->
      Alcotest.(check bool)
        (ph.kernel.Sp_workloads.Kernel.name ^ " cost positive")
        true
        (ph.Sp_workloads.Benchspec.call_cost > 4.0))
    built.Sp_workloads.Benchspec.phases

let test_calibrated_kernel_cost () =
  (* a calibrated kernel's call_cost must match a direct measurement *)
  let spec =
    {
      (Sp_workloads.Suite.find "620.omnetpp_s") with
      Sp_workloads.Benchspec.name = "cal.test";
      palette = [ Sp_workloads.Kernel.selection_sort ];
      planted_phases = 2;
      planted_n90 = 2;
      footprints = [ Sp_workloads.Benchspec.Small ];
    }
  in
  let built = Sp_workloads.Benchspec.build ~slices_scale:0.01 spec in
  Array.iter
    (fun (ph : Sp_workloads.Benchspec.phase) ->
      (* selection sort of a 24-window costs roughly 2000-2600 per call *)
      Alcotest.(check bool)
        (Printf.sprintf "measured cost plausible (%.0f)" ph.Sp_workloads.Benchspec.call_cost)
        true
        (ph.Sp_workloads.Benchspec.call_cost > 1000.0
        && ph.Sp_workloads.Benchspec.call_cost < 4000.0))
    built.Sp_workloads.Benchspec.phases

(* ------------------------------------------------------------------ *)
(* CPI stack *)

let test_cpistack_shares () =
  let spec = Sp_workloads.Suite.find "620.omnetpp_s" in
  let options =
    {
      Specrepro.Pipeline.default_options with
      slices_scale = 0.02;
      progress = false;
    }
  in
  let r = Specrepro.Pipeline.run_benchmark ~options spec in
  let s = r.Specrepro.Pipeline.whole_core in
  let total = s.Sp_cpu.Interval_core.cycles in
  let sum =
    s.Sp_cpu.Interval_core.base_cycles
    +. s.Sp_cpu.Interval_core.branch_stall_cycles
    +. s.Sp_cpu.Interval_core.memory_stall_cycles
  in
  Alcotest.(check (float 1e-6)) "stack sums to total" total sum;
  let table = Specrepro.Experiments.cpistack [ r ] in
  Alcotest.(check bool) "renders" true
    (Astring_contains.contains (Sp_util.Table.render table) "620.omnetpp_s")

let suite =
  [
    Alcotest.test_case "roi detection" `Quick test_roi_detection;
    Alcotest.test_case "roi unreached" `Quick test_roi_unreached;
    Alcotest.test_case "benchspec roi pc" `Quick test_benchspec_roi_pc;
    Alcotest.test_case "negative address masked" `Quick
      test_memory_negative_address_masked;
    Alcotest.test_case "interp wild address" `Quick test_interp_wild_address;
    Alcotest.test_case "timemodel ordering" `Quick test_timemodel_ordering;
    QCheck_alcotest.to_alcotest prop_normalize_invariants;
    Alcotest.test_case "chase stride" `Quick test_chase_stride;
    Alcotest.test_case "call cost positive" `Quick test_call_cost_positive;
    Alcotest.test_case "calibrated kernel cost" `Quick test_calibrated_kernel_cost;
    Alcotest.test_case "cpistack shares" `Quick test_cpistack_shares;
  ]
