(* The repository benchmark (README.md in this directory):

     main.exe suite [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--json FILE]
     main.exe compare A.json B.json

   [suite] with a workload runs it in this process; without one, it
   runs every workload, each in its own child process so that GC state
   and peak heap belong to one workload. [suite --workload W --seed N
   --setup-only] times one set-up; a run starts it for its repeats. *)

let usage () =
  prerr_endline
    "usage: main.exe suite [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--json FILE]\n\
    \       main.exe compare A.json B.json";
  exit 2

let suite args =
  let workload = ref None and seed = ref 1L and seconds = ref 10.0 in
  let trace = ref false and json = ref None and setup_only = ref false in
  let rec parse = function
    | "--workload" :: v :: rest ->
      workload := Some v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := Option.value ~default:0L (Int64.of_string_opt v);
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := Option.value ~default:0.0 (float_of_string_opt v);
      parse rest
    | "--trace" :: v :: rest ->
      (match v with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
      parse rest
    | "--json" :: v :: rest ->
      json := Some v;
      parse rest
    | "--setup-only" :: rest ->
      setup_only := true;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse args;
  if !seconds <= 0.0 then usage ();
  match !workload with
  | Some name -> (
    match List.find_opt (fun (w : Workloads.t) -> w.Workloads.name = name) Workloads.all with
    | None ->
      Printf.eprintf "unknown workload %s; known: %s\n" name
        (String.concat " " (List.map (fun (w : Workloads.t) -> w.Workloads.name) Workloads.all));
      exit 2
    | Some w when !setup_only -> Suite.setup_only w !seed
    | Some w ->
      exit (if Suite.run ~w ~seed:!seed ~seconds:!seconds ~trace:!trace ~json_file:!json then 0 else 1))
  | None ->
    let failed =
      List.filter
        (fun (w : Workloads.t) ->
          let argv =
            Array.of_list
              ([ Sys.executable_name; "suite"; "--workload"; w.Workloads.name; "--seed";
                 Int64.to_string !seed; "--seconds"; Printf.sprintf "%g" !seconds; "--trace";
                 (if !trace then "1" else "0") ]
              @ match !json with Some f -> [ "--json"; f ] | None -> [])
          in
          let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
          snd (Unix.waitpid [] pid) <> Unix.WEXITED 0)
        Workloads.all
    in
    List.iter (fun (w : Workloads.t) -> Printf.eprintf "workload %s failed\n" w.Workloads.name) failed;
    exit (if failed = [] then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "suite" :: args -> suite args
  | [ "compare"; a; b ] -> exit (if Compare.run a b then 0 else 1)
  | _ -> usage ()
