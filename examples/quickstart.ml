(* Quickstart: the SimPoint pipeline on one benchmark, end to end.

     dune exec examples/quickstart.exe -- [benchmark] [scale]

   Builds the synthetic 505.mcf_r workload, logs a Whole Pinball while
   profiling it, selects simulation points, replays the Regional
   Pinballs, and prints the paper's core comparison: how well a handful
   of simulation points represents the whole run. *)

open Specrepro

let () =
  let bench = if Array.length Sys.argv > 1 then Sys.argv.(1) else "505.mcf_r" in
  let scale =
    if Array.length Sys.argv > 2 then float_of_string Sys.argv.(2) else 0.25
  in
  let spec = Sp_workloads.Suite.find bench in
  Printf.printf "Benchmark: %s (%s)\n" spec.Sp_workloads.Benchspec.name
    (Sp_workloads.Benchspec.suite_class_name
       spec.Sp_workloads.Benchspec.suite_class);
  let options = { Pipeline.default_options with slices_scale = scale } in
  let r = Pipeline.run_benchmark ~options spec in

  Printf.printf "\nWhole run: %d instructions in %d slices of %d\n"
    r.Pipeline.whole_insns r.Pipeline.selection.num_slices
    r.Pipeline.built.Sp_workloads.Benchspec.slice_insns;
  Printf.printf "SimPoint chose %d simulation points (paper: %d); %d cover 90%%\n"
    r.Pipeline.selection.chosen_k spec.Sp_workloads.Benchspec.planted_phases
    (Pipeline.reduced_count r);

  Printf.printf "\nSimulation points (weight-ordered):\n";
  let points = Array.copy r.Pipeline.selection.points in
  Array.sort
    (fun (a : Sp_simpoint.Simpoints.point) b -> compare b.weight a.weight)
    points;
  Array.iteri
    (fun i (p : Sp_simpoint.Simpoints.point) ->
      if i < 10 then
        Printf.printf "  %2d. weight %5.2f%%  slice %6d (@instruction %d)\n"
          (i + 1) (p.weight *. 100.0) p.slice_index p.start_icount)
    points;
  if Array.length points > 10 then
    Printf.printf "  ... and %d more\n" (Array.length points - 10);

  let show (s : Runstats.run_stats) =
    Printf.printf "  %-18s %12.0f insns   %s   CPI %.3f\n" s.Runstats.label
      s.Runstats.insns
      (Format.asprintf "%a" Sp_pin.Mix.pp s.Runstats.mix)
      s.Runstats.cpi
  in
  Printf.printf "\nWhole vs sampled runs:\n";
  show r.Pipeline.whole;
  show (Pipeline.regional r);
  show (Pipeline.reduced r);
  let reg = Pipeline.regional r in
  Printf.printf
    "\nInstruction-distribution error (largest class): %.2f percentage points\n"
    (Runstats.mix_error_pp ~reference:r.Pipeline.whole reg);
  Printf.printf "Instruction reduction: %.0fx (Regional), %.0fx (Reduced)\n"
    (r.Pipeline.whole.Runstats.insns /. reg.Runstats.insns)
    (r.Pipeline.whole.Runstats.insns /. (Pipeline.reduced r).Runstats.insns)
