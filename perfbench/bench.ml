(* The repository benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload (cold-suite, warm-suite or serve-mix) on inputs
   drawn from the seed: it sets up [setups] times, then measures passes
   for S seconds, checks every pass's outputs against the reference
   built during set-up, and prints a table followed by one JSON line
   with the end-to-end metrics (--trace 0) or the per-layer metrics
   (--trace 1).  The traced run alternates untraced and traced passes,
   then probes each layer and writes its spans as a Chrome trace under
   .perfbench/. *)

module Json = Sp_obs.Json
module Metrics = Sp_obs.Metrics

let setups = 3
let min_passes = 3

type workload_setup =
  | Suite of Suites.setup
  | Serve of Serve_mix.setup

let setup_workload ~work workload seed =
  match workload with
  | Plan.Cold_suite -> Suite (Suites.setup ~work ~warm:false seed)
  | Warm_suite -> Suite (Suites.setup ~work ~warm:true seed)
  | Serve_mix -> Serve (Serve_mix.setup ~work seed)

let teardown = function Suite _ -> () | Serve s -> Serve_mix.stop s

let run_pass ~work ~index = function
  | Suite s -> Suites.pass ~work ~index s
  | Serve s -> Serve_mix.pass ~work ~index s

let accuracy_of = function
  | Suite s -> s.Suites.accuracy
  | Serve s -> s.Serve_mix.accuracy

(* (benchmark, sampler) pairs the layer probes run over. *)
let probe_jobs = function
  | Suite s -> List.map (fun spec -> (spec, Plan.options.sampler)) s.Suites.specs
  | Serve s ->
      Array.to_list
        (Array.map (fun (j : Plan.job) -> (j.Plan.spec, j.Plan.sampler)) s.Serve_mix.distinct)

let parallel_of = function Suite _ -> 1 | Serve _ -> Serve_mix.parallel

(* ------------------------------------------------------------------ *)
(* host facts *)

let git_rev () =
  let read path = try String.trim (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> "" in
  match read ".git/HEAD" with
  | "" -> "unknown (not a git checkout)"
  | head when String.length head > 5 && String.sub head 0 5 = "ref: " ->
      let rev = read (Filename.concat ".git" (String.sub head 5 (String.length head - 5))) in
      if rev = "" then "unknown" else rev
  | head -> head

(* ------------------------------------------------------------------ *)
(* output *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let print_table ~title metrics =
  Printf.printf "%s\n" title;
  List.iter (fun m -> Printf.printf "  %-32s %16.6g %s\n" m.name m.value m.unit_) metrics

let result_json ~correct ~attempted ~failed metrics =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Num (float_of_int attempted));
      ("failed", Json.Num (float_of_int failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun m ->
               (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
             metrics) );
    ]

(* ------------------------------------------------------------------ *)
(* measurement *)

(* cache traffic over the measured passes *)
let cache_names =
  [ "pbcache.misses"; "pbcache.quarantined"; "profcache.misses"; "profcache.quarantines";
    "pbcache.mem_hits" ]

(* Checks every pass must satisfy: the exact counters and the simulated
   accuracy repeat, pass after pass, traced or not. *)
let repeat_failures reference (passes : Summary.pass list) =
  match passes with
  | [] -> [ "no pass completed" ]
  | first :: _ ->
      List.concat_map
        (fun (p : Summary.pass) ->
          (if p.counts <> first.Summary.counts then [ "exact counters differ between passes" ] else [])
          @
          match p.accuracy with
          | Some a when a = reference -> []
          | Some _ -> [ "simulated accuracy differs between passes" ]
          | None -> [ "a pass had failed jobs" ])
        passes
      |> List.sort_uniq compare

let count_metric (p : Summary.pass) name =
  metric name "count" (List.assoc name p.Summary.counts)

let stage_metric passes (stage, name) =
  metric name "s"
    (Summary.median
       (List.map
          (fun (p : Summary.pass) -> Option.value (List.assoc_opt stage p.Summary.stages) ~default:0.0)
          passes))

let end_to_end ~setup_s ~accuracy (passes : Summary.pass list) =
  let all f = List.concat_map f passes in
  let jobs = all (fun p -> p.Summary.job_s) in
  [
    metric "setup_s" "s" setup_s;
    metric "pass_s" "s" (Summary.median (List.map (fun p -> p.Summary.seconds) passes));
    metric "bench_s_p90" "s" (Summary.p90 (all (fun p -> p.Summary.bench_s)));
    metric "job_s_p50" "s" (Summary.median jobs);
    metric "job_s_p90" "s" (Summary.p90 jobs);
    metric "jobs_per_s" "1/s"
      (float_of_int (List.length jobs)
      /. Summary.sum (List.map (fun p -> p.Summary.seconds) passes));
    metric "peak_rss_mb" "MB" (Summary.peak_rss_mb ());
    metric "cpi_err_pct" "%" accuracy.Summary.cpi_err_pct;
    metric "l3_err_pct" "%" accuracy.Summary.l3_err_pct;
    metric "detail_insn_frac" "frac" accuracy.Summary.detail_insn_frac;
  ]

let hist samples name =
  match Metrics.find name samples with
  | Some { Metrics.value = Metrics.Histogram_value h; _ } when h.Metrics.count > 0 -> Some h
  | _ -> None

let quantile samples name q =
  match hist samples name with Some h -> Metrics.quantile h q | None -> 0.0

let per_layer ~setup ~(untraced : Summary.pass list) ~(traced : Summary.pass list)
    ~cache_counts ~samples ~coverage ~(ladder : Layers.rung list) ~(probes : Layers.probes) =
  let passes = untraced @ traced in
  let lookups = float_of_int (List.fold_left (fun a p -> a + p.Summary.attempted) 0 passes) in
  let c name = List.assoc name cache_counts in
  let median_pass ps = Summary.median (List.map (fun p -> p.Summary.seconds) ps) in
  let pairs f = List.concat_map (fun p -> List.map2 f p.Summary.job_s p.Summary.bench_s) passes in
  let replies = List.fold_left (fun a p -> a + List.length p.Summary.job_s) 0 passes in
  let mismatched = List.fold_left (fun a p -> a + p.Summary.metrics_mismatch) 0 passes in
  let busy =
    match hist samples "pool.domain_busy_seconds" with Some h -> h.Metrics.sum | None -> 0.0
  in
  List.map (stage_metric untraced)
    [
      ("build", "stage.build_s");
      ("log+profile", "stage.log_profile_s");
      ("select", "stage.select_s");
      ("variance", "stage.variance_s");
      ("cold-replay", "stage.cold_replay_s");
      ("warm-replay", "stage.warm_replay_s");
    ]
  @ List.concat_map
      (fun (r : Layers.rung) ->
        metric r.Layers.metric "ns/insn" r.Layers.ns_per_insn
        :: List.map
             (fun (tier, n) ->
               let tier = String.sub tier 8 (String.length tier - 8) in
               metric (Printf.sprintf "ladder.%s.%s_runs" r.Layers.rung tier) "count" n)
             r.Layers.tiers)
      ladder
  @ [
      metric "simpoint.select_s" "s" probes.Layers.select_s;
      metric "simpoint.variance_s" "s" probes.Layers.variance_s;
      metric "pinball.capture_s" "s" probes.Layers.capture_s;
      metric "pinball.replay_ns_per_insn" "ns/insn" probes.Layers.replay_ns_per_insn;
      metric "pinball.store_mb_per_s" "MB/s" probes.Layers.store_mb_per_s;
      metric "pinball.load_mb_per_s" "MB/s" probes.Layers.load_mb_per_s;
      (* every pipeline run looks each cache up exactly once *)
      metric "pbcache.hit_ratio" "frac"
        (1.0 -. ((c "pbcache.misses" +. c "pbcache.quarantined") /. lookups));
      metric "profcache.hit_ratio" "frac"
        (1.0 -. ((c "profcache.misses" +. c "profcache.quarantines") /. lookups));
      metric "memcache.hit_ratio" "frac" (c "pbcache.mem_hits" /. (2.0 *. lookups));
      metric "serve.queue_wait_s_p50" "s" (quantile samples "serve.queue_wait_seconds" 0.5);
      metric "serve.queue_wait_s_p90" "s" (quantile samples "serve.queue_wait_seconds" 0.9);
      metric "serve.exec_s_p50" "s" (Summary.median (List.concat_map (fun p -> p.Summary.bench_s) passes));
      metric "serve.overhead_s" "s" (Summary.median (pairs (fun job bench -> job -. bench)));
      metric "serve.reply_metrics_mismatch" "frac"
        (float_of_int mismatched /. float_of_int (max 1 replies));
      metric "pool.busy_frac" "frac"
        (busy
        /. (Summary.sum (List.map (fun p -> p.Summary.seconds) passes)
           *. float_of_int (parallel_of setup)));
      metric "trace.coverage_frac" "frac" coverage;
      metric "trace.overhead_frac" "frac"
        ((median_pass traced -. median_pass untraced) /. median_pass untraced);
    ]
  @ List.map (count_metric (List.hd passes)) Summary.count_names

(* ------------------------------------------------------------------ *)

let run ~workload ~seed ~seconds ~trace =
  let name = Plan.workload_name workload in
  let work =
    Summary.fresh_dir
      (Filename.concat ".perfbench" (Printf.sprintf "%s-%d-%d" name seed (Unix.getpid ())))
  in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%b\n" name seed seconds trace;
  Printf.printf "host: nproc=%d ocaml=%s git=%s jobs=%d serve_parallel=%d scale=%g\n%!"
    (Domain.recommended_domain_count ()) Sys.ocaml_version (git_rev ())
    Plan.options.Specrepro.Pipeline.jobs Serve_mix.parallel Plan.scale;
  let specs = Plan.subset seed in
  if not (Plan.spans_classes specs) then failwith "subset does not span the suite";
  Printf.printf "subset: %s\n%!"
    (String.concat " " (List.map (fun s -> s.Sp_workloads.Benchspec.name) specs));
  (* set up several times and keep the last; set-up time is their median *)
  let setup = ref None and times = ref [] in
  for _ = 1 to setups do
    Option.iter teardown !setup;
    let t0 = Summary.now () in
    setup := Some (setup_workload ~work workload seed);
    times := !times @ [ Summary.now () -. t0 ]
  done;
  let setup = Option.get !setup and times = !times in
  let setup_s = Summary.median times in
  Metrics.reset ();
  let t0 = Summary.now () in
  let budget = if trace then seconds /. 2.0 else seconds in
  let next_index = ref 0 in
  let one_pass traced =
    incr next_index;
    let index = !next_index in
    if traced then begin
      Sp_obs.Tracer.enable ();
      let p =
        Sp_obs.Tracer.with_span ~cat:"perfbench" "pass" (fun () -> run_pass ~work ~index setup)
      in
      Sp_obs.Tracer.disable ();
      p
    end
    else run_pass ~work ~index setup
  in
  let rec loop untraced traced =
    let n = List.length untraced + List.length traced in
    let enough = if trace then List.length traced >= 2 else n >= min_passes in
    if enough && Summary.now () -. t0 >= budget then (List.rev untraced, List.rev traced)
    else if trace && List.length traced < List.length untraced then
      loop untraced (one_pass true :: traced)
    else loop (one_pass false :: untraced) traced
  in
  let (untraced, traced), cache_counts = Summary.counting cache_names (fun () -> loop [] []) in
  let samples = Metrics.snapshot () in
  let passes = untraced @ traced in
  let attempted = List.fold_left (fun a p -> a + p.Summary.attempted) 0 passes in
  let failed = List.fold_left (fun a p -> a + p.Summary.failed) 0 passes in
  let accuracy = accuracy_of setup in
  let problems = ref (repeat_failures accuracy passes) in
  let metrics =
    if not trace then end_to_end ~setup_s ~accuracy passes
    else begin
      Sp_obs.Tracer.enable ();
      let ladder = Layers.ladder (List.map fst (probe_jobs setup)) in
      let probes = Layers.probes ~work (probe_jobs setup) in
      Sp_obs.Tracer.disable ();
      if not probes.Layers.warmup_agrees then
        problems := "warm-region prefixes disagree with the warmup count" :: !problems;
      let trace_json = Sp_obs.Tracer.to_json () in
      let path = Printf.sprintf ".perfbench/trace-%s-seed%d.json" name seed in
      Sp_obs.Tracer.write path;
      (match Sp_obs.Trace_report.of_file path with
      | Ok _ -> Printf.printf "trace: %s\n" path
      | Error msg -> problems := ("trace does not validate: " ^ msg) :: !problems);
      per_layer ~setup ~untraced ~traced ~cache_counts ~samples
        ~coverage:(Layers.coverage trace_json) ~ladder ~probes
    end
  in
  teardown setup;
  Summary.rm_rf work;
  let correct = failed = 0 && !problems = [] in
  List.iter (Printf.printf "FAILED CHECK: %s\n") !problems;
  Printf.printf "passes: %d untraced, %d traced; jobs attempted %d, failed %d\n"
    (List.length untraced) (List.length traced) attempted failed;
  Printf.printf "setup seconds: %s\npass seconds: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") times))
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" p.Summary.seconds) passes));
  print_table ~title:(if trace then "per-layer metrics:" else "end-to-end metrics:")
    (metrics
    @ [ metric "failed_frac" "frac" (float_of_int failed /. float_of_int (max 1 attempted)) ]);
  print_endline
    (Json.to_string (result_json ~correct ~attempted ~failed metrics));
  if correct then 0 else 1

let () =
  match Array.to_list Sys.argv with
  | [ _; "--client"; socket; jobs_file; out_file ] ->
      Serve_mix.client_main ~socket ~jobs_file ~out_file
  | _ ->
      let workload = ref None and seed = ref None and seconds = ref 10.0 and trace = ref 0 in
      let set_workload w =
        match List.assoc_opt w Plan.workloads with
        | Some x -> workload := Some x
        | None -> raise (Arg.Bad ("unknown workload " ^ w))
      in
      Arg.parse
        [
          ("--workload", Arg.String set_workload, "NAME cold-suite | warm-suite | serve-mix");
          ("--seed", Arg.Int (fun s -> seed := Some s), "N workload seed");
          ("--seconds", Arg.Float (( := ) seconds), "S measuring time");
          ("--trace", Arg.Int (( := ) trace), "0|1 end-to-end or per-layer metrics");
        ]
        (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
        "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
      match !workload, !seed with
      | Some workload, Some seed ->
          exit (run ~workload ~seed ~seconds:!seconds ~trace:(!trace = 1))
      | _ ->
          prerr_endline "bench.exe: --workload and --seed are required";
          exit 2
