(* The sequential shared-scan implementation of region replay: the
   differential reference the single capture-then-fan-out path in
   [Pipeline.replay_points] is checked against.

   One forward replay of the whole pinball; at each simulation point
   the Regional Pinball is materialised and handed to a callback, with
   an optional warmup window executed under shared warm tools just
   before it.  The pipeline instead carves one self-contained
   warm-prefixed pinball per point ([Logger.capture_warm_regions]) and
   replays each with fresh tools; the two must agree bit for bit. *)

open Sp_vm
open Sp_pin
open Sp_pinball
open Specrepro

(* the cold Regional Pinballs of [points], in the order given: the
   single capture path with a zero-length warmup prefix *)
let cold_regions whole points =
  Array.map
    (fun (wr : Logger.warm_region) -> wr.Logger.warm_pinball)
    (Logger.capture_warm_regions ~warmup_insns:0 whole points)

type warmup = {
  length : int;  (** instructions to warm before each point *)
  hooks : Hooks.t;  (** attached during the warmup window *)
  on_start : unit -> unit;
      (** fired before each point's window (e.g. to cold-reset the
          caches being warmed); skipped when [length] is 0 *)
}

(* [warmup] reproduces the paper's Warmup Regional Run: the [length]
   instructions preceding each point are executed with [hooks] attached,
   clamped to the gap since the previous point *)
let scan_regions ?warmup (w : Logger.whole) points f =
  let pb = w.Logger.pinball in
  let sorted = Sp_simpoint.Simpoints.by_start points in
  let machine = Snapshot.restore pb.Pinball.snapshot in
  let syscall = Replayer.recorded_syscall pb in
  let last = Array.length sorted - 1 in
  Array.iteri
    (fun i (p : Sp_simpoint.Simpoints.point) ->
      let start = p.start_icount in
      if start > w.Logger.total_insns then
        invalid_arg "Scan_reference.scan_regions: point beyond execution";
      let gap = start - machine.Interp.icount in
      if gap < 0 then
        invalid_arg "Scan_reference.scan_regions: overlapping points";
      (match warmup with
      | Some wu when wu.length > 0 ->
          let wlen = min wu.length gap in
          let ff = gap - wlen in
          if ff > 0 then
            ignore (Interp.run ~syscall ~fuel:ff pb.Pinball.program machine);
          wu.on_start ();
          if wlen > 0 then
            ignore
              (Interp.run ~hooks:wu.hooks ~syscall ~fuel:wlen
                 pb.Pinball.program machine)
      | Some _ | None ->
          if gap > 0 then
            ignore (Interp.run ~syscall ~fuel:gap pb.Pinball.program machine));
      let region =
        {
          Pinball.benchmark = pb.Pinball.benchmark;
          kind = Pinball.Region { cluster = p.cluster; weight = p.weight };
          program = pb.Pinball.program;
          snapshot = Snapshot.capture machine;
          length = Some p.length;
          syscalls = Pinball.syscalls_in_range pb ~start ~len:p.length;
        }
      in
      f region;
      (* advance over the region itself, positioning for the next
         point; after the final region the advance would be pure waste *)
      if i < last then
        ignore (Interp.run ~syscall ~fuel:p.length pb.Pinball.program machine))
    sorted

let point_stats (pb : Pinball.t) (result : Replayer.result) mixt cache core =
  let cluster, weight =
    match pb.Pinball.kind with
    | Pinball.Region r -> (r.cluster, r.weight)
    | Pinball.Whole -> (-1, 1.0)
  in
  {
    Runstats.cluster;
    weight;
    insns = result.Replayer.retired;
    mix = Ldstmix.mix mixt;
    cache = Allcache_tool.stats cache;
    cpi = Sp_cpu.Interval_core.cpi core;
  }

let tools_of (options : Pipeline.options) prog =
  ( Allcache_tool.create ~config:options.cache_config
      ~prefetch:options.next_line_prefetch prog,
    Sp_cpu.Interval_core.create ~config:options.core_config prog )

(* Region replay as one shared forward scan with shared tools, reset at
   each window start (a zero-length window resets at the region
   instead). *)
let replay_points_scan options ~warmup_insns (whole : Logger.whole) points =
  let cache, core = tools_of options whole.Logger.pinball.Pinball.program in
  let tools = [ Allcache_tool.hooks cache; Sp_cpu.Interval_core.hooks core ] in
  let reset () =
    Allcache_tool.reset_state cache;
    Sp_cpu.Interval_core.reset_state core
  in
  let acc = ref [] in
  let warmup =
    {
      length = warmup_insns;
      hooks = Hooks.seq_all tools;
      on_start =
        (fun () ->
          reset ();
          Allcache_tool.set_warming cache true;
          Sp_cpu.Interval_core.set_warming core true);
    }
  in
  scan_regions ~warmup whole points (fun pb ->
      Allcache_tool.set_warming cache false;
      Sp_cpu.Interval_core.set_warming core false;
      if warmup_insns = 0 then reset ();
      let mixt = Ldstmix.create () in
      let result = Replayer.replay ~tools:(Ldstmix.hooks mixt :: tools) pb in
      acc := point_stats pb result mixt cache core :: !acc);
  List.rev !acc

(* The cold Regional Run as a scan without warmup, each region replayed
   under freshly created tools: a reference for the zero-length-prefix
   path that shares neither its capture nor its tool reset. *)
let cold_replay_points_scan options (whole : Logger.whole) points =
  let acc = ref [] in
  scan_regions whole points (fun pb ->
      let mixt = Ldstmix.create () in
      let cache, core = tools_of options pb.Pinball.program in
      let result =
        Replayer.replay
          ~tools:
            [
              Ldstmix.hooks mixt;
              Allcache_tool.hooks cache;
              Sp_cpu.Interval_core.hooks core;
            ]
          pb
      in
      acc := point_stats pb result mixt cache core :: !acc);
  List.rev !acc
