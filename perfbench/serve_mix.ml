(* The serve-mix workload: an in-process [Sp_serve.Server] running two
   jobs at a time over caches filled during set-up, driven by a separate
   client process that holds two connections and submits the seeded
   job sequence as a closed loop (each connection waits for its reply
   before submitting the next job). *)

module Json = Sp_obs.Json
module Pipeline = Specrepro.Pipeline
module Server = Sp_serve.Server
module Client = Sp_serve.Client

let parallel = 2
let connections = 2

type reference = {
  stable_reply : string;  (** the reply minus timings and metrics *)
  stable_metrics : string;  (** stable metrics of the job run alone *)
}

type setup = {
  server : Server.t;
  socket : string;
  jobs_file : string;
  sequence : Plan.job array;
  references : (string * reference) list;  (** by {!Plan.job_label} *)
  accuracy : Summary.accuracy;
  distinct : Plan.job array;  (** one job per subset benchmark *)
}

(* The member at a path of object keys. *)
let rec at keys json =
  match keys with
  | [] -> Some json
  | k :: rest -> Option.bind (Json.member k json) (at rest)

(* The stable entries of an envelope's [result.metrics]. *)
let stable_metrics envelope =
  match at [ "result"; "metrics" ] envelope with
  | Some (Json.List items) ->
      Json.to_string
        (Json.List
           (List.filter
              (fun m -> Json.member "stable" m = Some (Json.Bool true))
              items))
  | _ -> ""

let write_jobs path sequence =
  let oc = open_out path in
  Array.iter
    (fun (j : Plan.job) ->
      Printf.fprintf oc "%s %s\n" j.Plan.spec.Sp_workloads.Benchspec.name
        (Sp_simpoint.Sampler.name j.Plan.sampler))
    sequence;
  close_out oc

(* Fill the caches by running every distinct job once in-process, each
   from a reset metrics registry, so its envelope is what a fresh
   [specrepro run --json] prints; then start the server over them. *)
let setup ~work seed =
  let distinct, sequence = Plan.serve_jobs seed in
  let dir = Summary.fresh_dir (Filename.concat work "cache") in
  Sp_pinball.Artifact_cache.clear_mem ();
  Sp_pinball.Profile_store.clear_mem ();
  let runs =
    Array.to_list
      (Array.map
         (fun job ->
           Sp_obs.Metrics.reset ();
           let options =
             { (Plan.job_options job) with Pipeline.profile_cache = Some dir }
           in
           let r = Pipeline.run_benchmark ~options job.Plan.spec in
           let envelope = Specrepro.Api.run_envelope r in
           ( Plan.job_label job,
             r,
             {
               stable_reply = Json.to_string (Summary.stable envelope);
               stable_metrics = stable_metrics envelope;
             } ))
         distinct)
  in
  let socket = Filename.concat work "serve.sock" in
  let jobs_file = Filename.concat work "jobs.txt" in
  write_jobs jobs_file sequence;
  let server =
    Server.start
      {
        Server.socket_path = socket;
        results_path = None;
        queue_capacity = 4 * Array.length sequence;
        parallel;
        job_timeout = 0.0;
        base_options = { Plan.options with Pipeline.profile_cache = Some dir };
        quiet = true;
      }
  in
  {
    server;
    socket;
    jobs_file;
    sequence;
    references = List.map (fun (l, _, reference) -> (l, reference)) runs;
    accuracy = Summary.accuracy (List.map (fun (_, r, _) -> r) runs);
    distinct;
  }

let stop setup = Server.stop setup.server

(* ------------------------------------------------------------------ *)
(* the client process *)

let read_lines path = In_channel.with_open_text path In_channel.input_lines

(* Submit every job of [jobs_file] over [connections] connections, each
   a closed loop, and write "<pass seconds>" then one
   "<job index> <seconds> <reply>" line per job to [out_file]. *)
let client_main ~socket ~jobs_file ~out_file =
  let jobs =
    Array.of_list
      (List.map
         (fun line ->
           match String.split_on_char ' ' line with
           | [ bench; sampler ] -> (
               match Sp_simpoint.Sampler.of_name sampler with
               | Ok sampler ->
                   { Plan.spec = Sp_workloads.Suite.find bench; sampler }
               | Error msg -> failwith msg)
           | _ -> failwith ("bad job line: " ^ line))
         (read_lines jobs_file))
  in
  let results = Array.make (Array.length jobs) (0.0, "ERROR no reply") in
  let next = Atomic.make 0 in
  let worker () =
    match Client.connect socket with
    | Error msg -> prerr_endline msg
    | Ok conn ->
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < Array.length jobs then begin
            let job = jobs.(i) in
            let request =
              Client.submit ~benchmark:job.Plan.spec.Sp_workloads.Benchspec.name
                (Plan.job_options job)
            in
            let t0 = Summary.now () in
            let reply = Client.request conn request in
            let dt = Summary.now () -. t0 in
            results.(i) <-
              (match reply with
              | Ok (raw, _) -> (dt, raw)
              | Error msg -> (dt, "ERROR " ^ msg));
            loop ()
          end
        in
        loop ();
        Client.close conn
  in
  let t0 = Summary.now () in
  let threads = List.init connections (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  let seconds = Summary.now () -. t0 in
  let oc = open_out out_file in
  Printf.fprintf oc "%.9f\n" seconds;
  Array.iteri (fun i (dt, raw) -> Printf.fprintf oc "%d %.9f %s\n" i dt raw) results;
  close_out oc

(* ------------------------------------------------------------------ *)
(* one pass *)

let run_client setup out_file =
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--client"; setup.socket; setup.jobs_file; out_file |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> Ok ()
  | _ -> Error "client process failed"

let check_reply setup (job : Plan.job) raw =
  let reference = List.assoc (Plan.job_label job) setup.references in
  match Json.parse raw with
  | Error msg -> Error ("unparsable reply: " ^ msg)
  | Ok reply when Json.member "command" reply <> Some (Json.Str "run") ->
      Error ("error reply: " ^ raw)
  | Ok reply ->
      if Json.to_string (Summary.stable reply) <> reference.stable_reply then
        Error "reply differs from the in-process run"
      else
        let stages =
          match at [ "result"; "report"; "stages" ] reply with
          | Some (Json.List stages) ->
              List.filter_map
                (fun s ->
                  match
                    ( Option.bind (Json.member "stage" s) Json.to_str,
                      Option.bind (Json.member "seconds" s) Json.to_float )
                  with
                  | Some n, Some v -> Some (n, v)
                  | _ -> None)
                stages
          | _ -> []
        in
        let wall =
          Option.bind (at [ "result"; "wall_seconds" ] reply) Json.to_float
          |> Option.value ~default:nan
        in
        Ok (wall, stages, stable_metrics reply <> reference.stable_metrics)

let pass ~work ~index setup =
  let out_file = Filename.concat work (Printf.sprintf "client-%d.txt" index) in
  let outcome, counts =
    Summary.counting Summary.count_names (fun () -> run_client setup out_file)
  in
  let attempted = Array.length setup.sequence in
  let failed_pass reason =
    Printf.eprintf "perfbench: serve pass failed: %s\n%!" reason;
    {
      Summary.seconds = nan;
      job_s = [];
      bench_s = [];
      stages = [];
      counts;
      attempted;
      failed = attempted;
      metrics_mismatch = 0;
      accuracy = None;
    }
  in
  match outcome with
  | Error reason -> failed_pass reason
  | Ok () -> (
      match read_lines out_file with
      | [] -> failed_pass "empty client output"
      | first :: lines ->
          Summary.rm_rf out_file;
          let ok =
            List.filter_map
              (fun line ->
                let a = String.index line ' ' in
                let b = String.index_from line (a + 1) ' ' in
                let i = int_of_string (String.sub line 0 a) in
                let dt = float_of_string (String.sub line (a + 1) (b - a - 1)) in
                let raw = String.sub line (b + 1) (String.length line - b - 1) in
                match check_reply setup setup.sequence.(i) raw with
                | Ok (wall, stages, mismatch) -> Some (dt, wall, stages, mismatch)
                | Error msg ->
                    Printf.eprintf "perfbench: %s\n%!" msg;
                    None)
              lines
          in
          let failed = attempted - List.length ok in
          {
            Summary.seconds = float_of_string first;
            job_s = List.map (fun (dt, _, _, _) -> dt) ok;
            bench_s = List.map (fun (_, w, _, _) -> w) ok;
            stages =
              List.fold_left (fun acc (_, _, s, _) -> Summary.add_stages acc s) [] ok;
            counts;
            attempted;
            failed;
            metrics_mismatch =
              List.length (List.filter (fun (_, _, _, m) -> m) ok);
            accuracy = (if failed = 0 then Some setup.accuracy else None);
          })
