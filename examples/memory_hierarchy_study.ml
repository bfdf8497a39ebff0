(* The paper's cautionary tale (Section IV-D): exploring a memory
   hierarchy with SimPoints gives badly wrong LLC numbers unless the
   caches are warmed before each simulation point.

     dune exec examples/memory_hierarchy_study.exe -- [benchmark] [scale]

   Runs a memory-bound workload and prints the same cache-design
   question answered three ways: from the whole run (ground truth),
   from cold Regional Pinballs (the naive approach), and from warmed
   Regional Pinballs (the mitigation). *)

open Specrepro

let () =
  let bench = if Array.length Sys.argv > 1 then Sys.argv.(1) else "605.mcf_s" in
  let scale =
    if Array.length Sys.argv > 2 then float_of_string Sys.argv.(2) else 0.25
  in
  let spec = Sp_workloads.Suite.find bench in
  let options = { Pipeline.default_options with slices_scale = scale } in
  Printf.printf "Memory-hierarchy study on %s\n" spec.Sp_workloads.Benchspec.name;
  Printf.printf "(allcache hierarchy: Table I, capacity-scaled 1/%d)\n\n"
    Sp_cache.Config.sim_scale;
  let r = Pipeline.run_benchmark ~options spec in
  let whole = r.Pipeline.whole in
  let cold = Pipeline.regional r in
  let warm = Pipeline.warmup_regional r in
  Printf.printf "%-24s %8s %8s %8s %12s\n" "Run" "L1D" "L2" "L3" "L3 accesses";
  List.iter
    (fun (s : Runstats.run_stats) ->
      Printf.printf "%-24s %7.2f%% %7.2f%% %7.2f%% %12.0f\n" s.Runstats.label
        (s.Runstats.l1d_miss *. 100.0)
        (s.Runstats.l2_miss *. 100.0)
        (s.Runstats.l3_miss *. 100.0)
        s.Runstats.l3_accesses)
    [ whole; cold; warm ];
  let err label (s : Runstats.run_stats) =
    let l1d, l2, l3 = Runstats.miss_rate_error_pct ~reference:whole s in
    Printf.printf "%-24s L1D %6.1f%%   L2 %6.1f%%   L3 %6.1f%%\n" label l1d l2 l3
  in
  Printf.printf "\nMiss-rate error vs the whole run:\n";
  err "cold Regional" cold;
  err "Warmup Regional" warm;
  Printf.printf
    "\nThe cold Regional run inflates last-level miss rates (every region\n\
     starts with empty caches), exactly the hazard the paper reports for\n\
     memory-hierarchy studies; warming the caches for %d instructions\n\
     before each point recovers most of the fidelity.\n"
    r.Pipeline.options.Pipeline.warmup_insns;
  (* a concrete design-decision illustration: compare two L3 sizes
     using cold pinballs vs whole runs *)
  Printf.printf
    "\nDesign-question check: does doubling L3 halve the L3 miss rate?\n";
  let bigger_l3 =
    let h = options.Pipeline.cache_config in
    {
      h with
      Sp_cache.Config.l3 =
        { h.Sp_cache.Config.l3 with
          Sp_cache.Config.size_bytes = h.Sp_cache.Config.l3.size_bytes * 2 };
    }
  in
  let options2 = { options with Pipeline.cache_config = bigger_l3 } in
  let r2 = Pipeline.run_benchmark ~options:options2 spec in
  let pct x = x *. 100.0 in
  Printf.printf "  whole runs:     %.2f%% -> %.2f%%\n"
    (pct whole.Runstats.l3_miss)
    (pct r2.Pipeline.whole.Runstats.l3_miss);
  Printf.printf "  cold regional:  %.2f%% -> %.2f%%   (cold caches mask the gain)\n"
    (pct cold.Runstats.l3_miss)
    (pct (Pipeline.regional r2).Runstats.l3_miss);
  Printf.printf "  warm regional:  %.2f%% -> %.2f%%\n"
    (pct warm.Runstats.l3_miss)
    (pct (Pipeline.warmup_regional r2).Runstats.l3_miss)
