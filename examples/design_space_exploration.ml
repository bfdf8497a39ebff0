(* Design-space exploration with simulation points — the use case the
   paper's title is about, done the way its Section IV-D recommends:
   sample with SimPoints, warm before measuring, and validate the
   conclusion against full runs.

   We sweep the L2 capacity of the allcache hierarchy on a memory-bound
   workload and ask the design question "where does growing L2 stop
   paying off?", answered three ways: whole runs (ground truth), warmed
   Regional runs (the recommended practice, ~hundreds of times cheaper),
   and cold Regional runs (the anti-pattern).

     dune exec examples/design_space_exploration.exe -- [benchmark] [scale] *)

open Specrepro

let l2_sizes_kb = [ 16; 32; 64; 128 ]

let () =
  let bench = if Array.length Sys.argv > 1 then Sys.argv.(1) else "641.leela_s" in
  let scale =
    if Array.length Sys.argv > 2 then float_of_string Sys.argv.(2) else 0.25
  in
  let spec = Sp_workloads.Suite.find bench in
  Printf.printf "L2 design sweep on %s (scaled hierarchy, L2 candidates: %s kB)\n\n"
    spec.Sp_workloads.Benchspec.name
    (String.concat "/" (List.map string_of_int l2_sizes_kb));
  Printf.printf "%8s | %12s | %14s | %14s\n" "L2 (kB)" "whole L2miss"
    "warm Regional" "cold Regional";
  let rows =
    List.map
      (fun size_kb ->
        let cache_config =
          let base = Sp_cache.Config.allcache_sim in
          {
            base with
            Sp_cache.Config.l2 =
              Sp_cache.Config.level ~name:"L2" ~size_kb
                ~assoc:base.Sp_cache.Config.l2.assoc
                ~line_bytes:base.Sp_cache.Config.l2.line_bytes;
          }
        in
        let options =
          {
            Pipeline.default_options with
            slices_scale = scale;
            progress = false;
            cache_config;
          }
        in
        let r = Pipeline.run_benchmark ~options spec in
        let whole = r.Pipeline.whole.Runstats.l2_miss in
        let warm = (Pipeline.warmup_regional r).Runstats.l2_miss in
        let cold = (Pipeline.regional r).Runstats.l2_miss in
        Printf.printf "%8d | %11.2f%% | %13.2f%% | %13.2f%%\n" size_kb
          (whole *. 100.) (warm *. 100.) (cold *. 100.);
        (size_kb, whole, warm, cold))
      l2_sizes_kb
  in
  (* the design question: the smallest L2 whose miss rate is within 15%
     of the best (largest) configuration *)
  let knee column =
    let best = column (List.nth rows (List.length rows - 1)) in
    List.find_map
      (fun row ->
        if column row <= (best *. 1.15) +. 1e-9 then
          Some (let s, _, _, _ = row in s)
        else None)
      rows
    |> Option.value ~default:0
  in
  let whole_knee = knee (fun (_, w, _, _) -> w) in
  let warm_knee = knee (fun (_, _, w, _) -> w) in
  let cold_knee = knee (fun (_, _, _, c) -> c) in
  Printf.printf
    "\nSmallest L2 within 15%% of the best miss rate:\n\
    \  whole runs:    %d kB   <- ground truth\n\
    \  warm regional: %d kB   %s\n\
    \  cold regional: %d kB   %s\n"
    whole_knee warm_knee
    (if warm_knee = whole_knee then "(same conclusion, ~100x cheaper)"
     else "(DIFFERENT conclusion!)")
    cold_knee
    (if cold_knee = whole_knee then "(got lucky)"
     else "(wrong: cold caches mask the capacity effect)")
