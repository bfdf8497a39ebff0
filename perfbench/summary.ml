(* Statistics over a run's samples, the simulated-accuracy metrics, the
   stable fingerprint outputs are checked against, and the exact work
   counters that must repeat from pass to pass. *)

module Json = Sp_obs.Json
module Metrics = Sp_obs.Metrics
module Pipeline = Specrepro.Pipeline
module Runstats = Specrepro.Runstats

let percentile xs p =
  if xs = [] then nan else Sp_util.Stats.percentile (Array.of_list xs) p

let median xs = percentile xs 50.0
let p90 xs = percentile xs 90.0
let sum = List.fold_left ( +. ) 0.0

(* ------------------------------------------------------------------ *)
(* simulated accuracy *)

type accuracy = {
  cpi_err_pct : float;  (** mean |Warmup-Regional CPI - Whole CPI| / Whole CPI *)
  l3_err_pct : float;  (** pooled Warmup-Regional L3 miss-rate error *)
  detail_insn_frac : float;  (** (regional + warmup insns) / whole insns *)
}

(* Warmup instructions the Warmup-Regional replays execute: each point's
   window is clamped to the gap since the previous point's end, as
   [Sp_pinball.Logger.capture_warm_regions] clamps it. *)
let warmup_insns ~warmup (points : Sp_simpoint.Simpoints.point array) =
  let points = Array.copy points in
  Array.sort
    (fun (a : Sp_simpoint.Simpoints.point) b -> compare a.start_icount b.start_icount)
    points;
  fst
    (Array.fold_left
       (fun (acc, prev_end) (p : Sp_simpoint.Simpoints.point) ->
         (acc + min warmup (p.start_icount - prev_end), p.start_icount + p.length))
       (0, 0) points)

(* Suite-as-one-workload L3 miss rate: per-benchmark access and miss
   densities per instruction, averaged with equal weight, then ratioed
   (the pooling the Figure 8 table uses). *)
let pooled_l3 (runs : Runstats.run_stats list) =
  let density (s : Runstats.run_stats) = s.l3_accesses /. s.insns in
  sum (List.map (fun s -> s.Runstats.l3_miss *. density s) runs)
  /. sum (List.map density runs)

let accuracy (results : Pipeline.bench_result list) =
  let n = float_of_int (List.length results) in
  let cpi_err (r : Pipeline.bench_result) =
    let whole = r.Pipeline.whole.Runstats.cpi in
    abs_float ((Pipeline.warmup_regional r).Runstats.cpi -. whole) /. whole
  in
  let whole_l3 = pooled_l3 (List.map (fun r -> r.Pipeline.whole) results) in
  let warm_l3 = pooled_l3 (List.map Pipeline.warmup_regional results) in
  let detail =
    List.map
      (fun r ->
        float_of_int
          (warmup_insns ~warmup:r.Pipeline.report.Pipeline.warmup_insns_used
             r.Pipeline.selection.Pipeline.points)
        +. (Pipeline.regional r).Runstats.insns)
      results
  in
  let whole_insns =
    List.map (fun r -> float_of_int r.Pipeline.whole_insns) results
  in
  {
    cpi_err_pct = 100.0 *. sum (List.map cpi_err results) /. n;
    l3_err_pct = 100.0 *. abs_float (warm_l3 -. whole_l3) /. whole_l3;
    detail_insn_frac = sum detail /. sum whole_insns;
  }

(* ------------------------------------------------------------------ *)
(* stable outputs *)

(* Drop what legitimately varies between runs of the same job: host
   timings and the process-global metrics snapshot. *)
let rec stable = function
  | Json.Obj fields ->
      Json.Obj
        (List.filter_map
           (fun (k, v) ->
             match k with
             | "metrics" -> None
             | "wall_seconds" | "seconds" -> Some (k, Json.Num 0.0)
             | _ -> Some (k, stable v))
           fields)
  | Json.List items -> Json.List (List.map stable items)
  | j -> j

let points_json (r : Pipeline.bench_result) =
  let sel = r.Pipeline.selection in
  let num i = Json.Num (float_of_int i) in
  Json.Obj
    [
      ("chosen_k", num sel.Pipeline.chosen_k);
      ( "points",
        Json.List
          (Array.to_list
             (Array.map
                (fun (p : Sp_simpoint.Simpoints.point) ->
                  Json.List
                    [
                      num p.cluster;
                      num p.slice_index;
                      num p.start_icount;
                      num p.length;
                      Json.Num p.weight;
                    ])
                sel.Pipeline.points)) );
    ]

(* Points, selection and the Whole / Regional / Reduced / Warmup-Regional
   statistics of one benchmark, rendered byte-stably. *)
let fingerprint r =
  Json.to_string
    (stable
       (Json.Obj
          (Specrepro.Api.bench_result_fields r @ [ ("selection", points_json r) ])))

(* ------------------------------------------------------------------ *)
(* exact work counters *)

let count_names =
  [ "vm.instructions"; "cache.l1d.accesses"; "cache.l3.misses"; "select.points" ]

let counter samples name =
  Option.value (Metrics.counter_value samples name) ~default:0.0

(* Counter deltas over [f ()]; the counters are pure functions of the
   simulated work, so a pass's deltas repeat exactly. *)
let counting names f =
  let before = Metrics.snapshot () in
  let v = f () in
  let after = Metrics.snapshot () in
  (v, List.map (fun n -> (n, counter after n -. counter before n)) names)

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %f kB"
              (fun kb -> kb /. 1024.0)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* ------------------------------------------------------------------ *)
(* one measured pass *)

type pass = {
  seconds : float;  (** wall time of the whole pass *)
  job_s : float list;  (** per job, submit to result, measured by the caller *)
  bench_s : float list;  (** per job, the pipeline's own [wall_seconds] *)
  stages : (string * float) list;  (** stage seconds summed over the pass *)
  counts : (string * float) list;  (** exact work counters of the pass *)
  attempted : int;
  failed : int;  (** errors, refusals and outputs unequal to the reference *)
  metrics_mismatch : int;  (** replies whose stable metrics differ *)
  accuracy : accuracy option;  (** [None] when a job failed *)
}

let add_stages acc stages =
  List.fold_left
    (fun acc (name, s) ->
      let prev = Option.value (List.assoc_opt name acc) ~default:0.0 in
      (name, prev +. s) :: List.remove_assoc name acc)
    acc stages

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* scratch directories inside the checkout *)

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path

let fresh_dir path =
  rm_rf path;
  Sp_pinball.Store.mkdir_p path;
  path
