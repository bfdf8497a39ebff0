(* Native-hardware validation (the paper's Section IV-E / Figure 12):
   run benchmarks natively under "perf", then simulate their Regional
   Pinballs in the Sniper-style timing model and compare CPIs.

     dune exec examples/cpi_validation.exe -- [scale] [bench ...] *)

open Specrepro

let default_benches = [ "505.mcf_r"; "641.leela_s"; "519.lbm_r" ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let scale, benches =
    match args with
    | s :: rest when float_of_string_opt s <> None ->
        (float_of_string s, if rest = [] then default_benches else rest)
    | [] -> (0.25, default_benches)
    | rest -> (0.25, rest)
  in
  let options = { Pipeline.default_options with slices_scale = scale } in
  Printf.printf "%-18s %10s %16s %15s %8s\n" "Benchmark" "perf CPI"
    "Sniper Regional" "Sniper Reduced" "err";
  let errs =
    List.map
      (fun bench ->
        let spec = Sp_workloads.Suite.find bench in
        let r = Pipeline.run_benchmark ~options spec in
        (* the perf side: native execution with hardware counters *)
        let native = r.Pipeline.native in
        let native_cpi = Sp_perf.Perf_counters.cpi native in
        (* the Sniper side: warmed regional replays in the timing model *)
        let sniper = (Pipeline.warmup_regional r).Runstats.cpi in
        let reduced = (Pipeline.reduced_warm r).Runstats.cpi in
        let err = Sp_util.Stats.rel_error_pct ~reference:native_cpi sniper in
        Printf.printf "%-18s %10.3f %16.3f %15.3f %7.1f%%\n" bench native_cpi
          sniper reduced err;
        err)
      benches
  in
  Printf.printf "\nAverage CPI error: %.2f%% (paper reports 2.59%% on real \
                 hardware at full scale)\n"
    (Sp_util.Stats.mean (Array.of_list errs));
  (* show what a full perf report looks like for the last benchmark *)
  match List.rev benches with
  | last :: _ ->
      let spec = Sp_workloads.Suite.find last in
      let built = Sp_workloads.Benchspec.build ~slices_scale:0.05 spec in
      Printf.printf "\n$ perf stat ./%s (simulated hardware)\n" last;
      let sample = Sp_perf.Native.run built.Sp_workloads.Benchspec.program in
      Format.printf "%a" Sp_perf.Perf_counters.pp sample
  | [] -> ()
