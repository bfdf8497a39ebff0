(* Per-layer probes for the traced run.  Each times calls into one
   layer's public functions over the workload's benchmarks, inside a
   [Sp_obs.Tracer] span opened here, so the library itself is measured
   unmodified. *)

module Json = Sp_obs.Json
module Pipeline = Specrepro.Pipeline
module Logger = Sp_pinball.Logger
module Interp = Sp_vm.Interp

let timed name f =
  Sp_obs.Tracer.with_span ~cat:"layer" name (fun () ->
      let t0 = Sp_obs.Clock.now_ns () in
      let v = f () in
      (v, Sp_obs.Clock.seconds_of_ns (Sp_obs.Clock.now_ns () - t0)))

(* ------------------------------------------------------------------ *)
(* the layer ladder *)

type rung = {
  rung : string;
  metric : string;
  ns_per_insn : float;
  tiers : (string * float) list;  (** [vm.runs.*] deltas: the engine tiers run *)
}

let tier_names = [ "vm.runs.compiled"; "vm.runs.fused"; "vm.runs.mixed" ]

(* [Interp.run] over each benchmark's whole program, adding one hook set
   per rung: nothing, the single-pass profiler, the allcache model, the
   interval timing core.  Each rung reports its total cost per
   instruction. *)
let ladder (specs : Sp_workloads.Benchspec.t list) =
  let o = Plan.options in
  let programs =
    List.map
      (fun spec ->
        (Sp_workloads.Benchspec.build ~slice_insns:o.Pipeline.slice_insns
           ~slices_scale:o.Pipeline.slices_scale spec)
          .Sp_workloads.Benchspec.program)
      specs
  in
  let profile prog =
    [ Sp_pin.Profile_tool.hooks (Sp_pin.Profile_tool.create ~slice_len:o.slice_insns prog) ]
  in
  let allcache prog =
    profile prog
    @ [
        Sp_pin.Allcache_tool.hooks
          (Sp_pin.Allcache_tool.create ~config:o.cache_config
             ~prefetch:o.next_line_prefetch prog);
      ]
  in
  let core prog =
    allcache prog
    @ [ Sp_cpu.Interval_core.hooks (Sp_cpu.Interval_core.create ~config:o.core_config prog) ]
  in
  List.map
    (fun (rung, metric, hooks_of) ->
      let (ns, insns), tiers =
        Summary.counting tier_names (fun () ->
            List.fold_left
              (fun (ns, insns) (prog : Sp_vm.Program.t) ->
                let hooks = Sp_vm.Hooks.seq_all (hooks_of prog) in
                let machine = Interp.create ~entry:prog.entry () in
                let (_ : Interp.status), s =
                  timed ("ladder." ^ rung) (fun () -> Interp.run ~hooks prog machine)
                in
                (ns +. (s *. 1e9), insns + machine.Interp.icount))
              (0.0, 0) programs)
      in
      { rung; metric; ns_per_insn = ns /. float_of_int insns; tiers })
    [
      ("nil", "vm.ns_per_insn", fun _ -> []);
      ("profile", "pin.profile_ns_per_insn", profile);
      ("allcache", "cache.allcache_ns_per_insn", allcache);
      ("core", "cpu.core_ns_per_insn", core);
    ]

(* ------------------------------------------------------------------ *)
(* Sp_simpoint and Sp_pinball *)

type probes = {
  select_s : float;
  variance_s : float;
  capture_s : float;
  replay_ns_per_insn : float;
  store_mb_per_s : float;
  load_mb_per_s : float;
  warmup_agrees : bool;
      (** the warm regions' prefixes sum to the warmup count the
          accuracy metric assumes *)
}

(* A warm-region replay with the tools the pipeline's warm replay
   attaches: cache and core warming over the prefix, measured (plus
   the ld/st mix) over the region. *)
let replay_warm (wr : Logger.warm_region) =
  let o = Plan.options in
  let prog = wr.Logger.warm_pinball.Sp_pinball.Pinball.program in
  let cache =
    Sp_pin.Allcache_tool.create ~config:o.cache_config ~prefetch:o.next_line_prefetch prog
  in
  let core = Sp_cpu.Interval_core.create ~config:o.core_config prog in
  let warm = [ Sp_pin.Allcache_tool.hooks cache; Sp_cpu.Interval_core.hooks core ] in
  Sp_pin.Allcache_tool.set_warming cache true;
  Sp_cpu.Interval_core.set_warming core true;
  let r =
    Sp_pinball.Replayer.replay_prefixed ~prefix_tools:warm
      ~tools:(Sp_pin.Ldstmix.hooks (Sp_pin.Ldstmix.create ()) :: warm)
      ~prefix:wr.Logger.warm_prefix
      ~on_region:(fun () ->
        Sp_pin.Allcache_tool.set_warming cache false;
        Sp_cpu.Interval_core.set_warming core false)
      wr.Logger.warm_pinball
  in
  wr.Logger.warm_prefix + r.Sp_pinball.Replayer.retired

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Select, variance, warm-region capture and replay, and pinball store
   and load, over each (benchmark, sampler) pair's profiled run. *)
let probes ~work (jobs : (Sp_workloads.Benchspec.t * Sp_simpoint.Sampler.kind) list) =
  let o = Plan.options in
  let dir = Summary.fresh_dir (Filename.concat work "probe") in
  let select_s = ref 0.0 and variance_s = ref 0.0 and capture_s = ref 0.0 in
  let replay_s = ref 0.0 and replay_insns = ref 0 in
  let store_s = ref 0.0 and load_s = ref 0.0 and mb = ref 0.0 in
  let warmup_agrees = ref true in
  let time total name f =
    let v, s = timed name f in
    total := !total +. s;
    v
  in
  List.iter
    (fun ((spec : Sp_workloads.Benchspec.t), sampler) ->
      let sweep = Pipeline.profile_for_sweep ~options:o spec in
      let slices = sweep.Pipeline.sweep_slices and whole = sweep.Pipeline.sweep_whole in
      let sel =
        time select_s "simpoint.select" (fun () ->
            Sp_simpoint.Sampler.select ~config:o.simpoint_config sampler
              ~slice_len:o.slice_insns slices)
      in
      let (_ : Sp_simpoint.Variance.sweep_point list) =
        time variance_s "simpoint.variance" (fun () ->
            Sp_simpoint.Variance.sweep ~config:o.simpoint_config ~ks:o.variance_ks slices)
      in
      let points = sel.Sp_simpoint.Sampler.points in
      let regions =
        time capture_s "pinball.capture" (fun () ->
            Logger.capture_warm_regions ~warmup_insns:o.warmup_insns whole points)
      in
      let prefixes = Array.fold_left (fun a wr -> a + wr.Logger.warm_prefix) 0 regions in
      if prefixes <> Summary.warmup_insns ~warmup:o.warmup_insns points then
        warmup_agrees := false;
      replay_insns :=
        !replay_insns
        + time replay_s "pinball.replay" (fun () ->
              Array.fold_left (fun a wr -> a + replay_warm wr) 0 regions);
      let path = Filename.concat dir (spec.Sp_workloads.Benchspec.name ^ ".pb") in
      let (_ : string) =
        time store_s "pinball.store" (fun () ->
            Sp_pinball.Store.save_path ~path whole.Logger.pinball)
      in
      let bytes = read_file path in
      mb := !mb +. (float_of_int (String.length bytes) /. 1048576.0);
      match time load_s "pinball.load" (fun () -> Sp_pinball.Store.of_bytes ~path bytes) with
      | Ok _ -> ()
      | Error e -> failwith (Sp_pinball.Store.error_message e))
    jobs;
  Summary.rm_rf dir;
  {
    select_s = !select_s;
    variance_s = !variance_s;
    capture_s = !capture_s;
    replay_ns_per_insn = !replay_s *. 1e9 /. float_of_int !replay_insns;
    store_mb_per_s = !mb /. !store_s;
    load_mb_per_s = !mb /. !load_s;
    warmup_agrees = !warmup_agrees;
  }

(* ------------------------------------------------------------------ *)
(* the trace itself *)

type interval = { cat : string; name : string; t0 : float; t1 : float }

(* Pair the Chrome trace's begin/end events per thread into spans. *)
let intervals trace =
  let events =
    Option.bind (Json.member "traceEvents" trace) Json.to_list
    |> Option.value ~default:[]
  in
  let str k e = Option.bind (Json.member k e) Json.to_str |> Option.value ~default:"" in
  let num k e = Option.bind (Json.member k e) Json.to_float |> Option.value ~default:0.0 in
  let open_spans = Hashtbl.create 8 in
  List.fold_left
    (fun acc e ->
      let tid = num "tid" e in
      let stack = Option.value (Hashtbl.find_opt open_spans tid) ~default:[] in
      match (str "ph" e, stack) with
      | "B", _ ->
          Hashtbl.replace open_spans tid (e :: stack);
          acc
      | "E", b :: rest ->
          Hashtbl.replace open_spans tid rest;
          { cat = str "cat" b; name = str "name" b; t0 = num "ts" b; t1 = num "ts" e }
          :: acc
      | _ -> acc)
    [] events

(* Share of the [pass] spans' time covered by at least one pipeline
   stage span, on any thread. *)
let coverage trace =
  let spans = intervals trace in
  let passes = List.filter (fun i -> i.cat = "perfbench" && i.name = "pass") spans in
  let stages =
    List.filter (fun i -> i.cat = "stage") spans
    |> List.sort (fun a b -> compare a.t0 b.t0)
  in
  let covered (p : interval) =
    let _, total =
      List.fold_left
        (fun (reach, total) s ->
          let lo = Float.max s.t0 (Float.max reach p.t0) and hi = Float.min s.t1 p.t1 in
          (Float.max reach hi, if hi > lo then total +. (hi -. lo) else total))
        (p.t0, 0.0) stages
    in
    total
  in
  Summary.sum (List.map covered passes)
  /. Summary.sum (List.map (fun p -> p.t1 -. p.t0) passes)
