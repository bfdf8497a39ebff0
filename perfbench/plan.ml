(* Seeded workload inputs.  The seed draws everything the program
   receives — which benchmarks run, in which order, and the serve-mix
   job sequence — and nothing else about a run depends on it. *)

module Benchspec = Sp_workloads.Benchspec
module Pipeline = Specrepro.Pipeline
module Rng = Sp_util.Rng
module Sampler = Sp_simpoint.Sampler

type workload = Cold_suite | Warm_suite | Serve_mix

let workloads =
  [ ("cold-suite", Cold_suite); ("warm-suite", Warm_suite); ("serve-mix", Serve_mix) ]

let workload_name w = fst (List.find (fun (_, x) -> x = w) workloads)

(* Whole-run scale of every benchmark: a cold pass over a subset takes a
   few seconds on one core, so a run holds several passes. *)
let scale = 0.02

let options =
  { Pipeline.default_options with slices_scale = scale; progress = false; jobs = 1 }

(* "505.mcf_r" -> "mcf": the program behind a rate or speed benchmark. *)
let program_of name =
  let base =
    match String.index_opt name '.' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  match String.rindex_opt base '_' with
  | Some i -> String.sub base 0 i
  | None -> base

(* Table II grouped by program, in first-appearance order.  SPEC ships
   most integer programs twice, as a rate and a speed benchmark. *)
let programs =
  List.fold_left
    (fun acc (spec : Benchspec.t) ->
      let p = program_of spec.Benchspec.name in
      if List.mem_assoc p acc then
        List.map (fun (q, ms) -> if q = p then (q, ms @ [ spec ]) else (q, ms)) acc
      else acc @ [ (p, [ spec ]) ])
    [] Sp_workloads.Suite.all

(* The subset: for every program one of its benchmarks, the rate or the
   speed version as the seed draws it, in a seeded order.  Every draw
   holds INT and FP benchmarks and all four footprint classes (the FP
   rate programs and 519.lbm_r always run). *)
let subset seed =
  let rng = Rng.create seed in
  let picks =
    List.map (fun (_, members) -> Rng.choose rng (Array.of_list members)) programs
    |> Array.of_list
  in
  Rng.shuffle rng picks;
  Array.to_list picks

let spans_classes (specs : Benchspec.t list) =
  let has_class f = List.exists (fun (s : Benchspec.t) -> f s.Benchspec.suite_class) specs in
  let is_int = function Benchspec.Int_rate | Int_speed -> true | _ -> false in
  let footprints = List.concat_map (fun (s : Benchspec.t) -> s.Benchspec.footprints) specs in
  has_class is_int
  && has_class (fun c -> not (is_int c))
  && List.for_all
       (fun f -> List.mem f footprints)
       Benchspec.[ Small; Medium; Large; Xlarge ]

(* One serve-mix job: what a client submits. *)
type job = { spec : Benchspec.t; sampler : Sampler.kind }

let job_options job = { options with Pipeline.sampler = job.sampler }

let job_label job =
  job.spec.Benchspec.name ^ "/" ^ Sampler.name job.sampler

(* Each program keeps one sampler across seeds (its Table II position
   modulo the four samplers), so every draw mixes all four in the same
   proportions. *)
let program_samplers =
  let kinds = Array.of_list Sampler.all_kinds in
  List.mapi (fun i (p, _) -> (p, kinds.(i mod Array.length kinds))) programs

(* The distinct jobs (one per subset benchmark) and the closed-loop
   sequence a pass submits: every distinct job [serve_repeats] times, in
   a seeded order, so repeats hit the in-memory caches the way a
   daemon's regular callers do. *)
let serve_repeats = 2

let serve_jobs seed =
  let distinct =
    List.map
      (fun (spec : Benchspec.t) ->
        { spec; sampler = List.assoc (program_of spec.Benchspec.name) program_samplers })
      (subset seed)
    |> Array.of_list
  in
  let sequence = Array.concat (List.init serve_repeats (fun _ -> distinct)) in
  Rng.shuffle (Rng.create (seed lxor 0x5e4e)) sequence;
  (distinct, sequence)
