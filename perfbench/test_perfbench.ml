(* The benchmark's own tests: at a small scale every workload reports
   exactly the metrics BENCHMARK.json declares, with their units, and its
   output checks pass; input generation is a pure function of the seed. *)

open Costar_perfbench

(* The (name, unit) pairs of one section of BENCHMARK.json (its path in
   $PERFBENCH_SPEC), which lists one metric per line as
   {"name": ..., "unit": ..., ...}. *)
let declared section =
  let text = In_channel.with_open_bin (Sys.getenv "PERFBENCH_SPEC") In_channel.input_all in
  let find_from i sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length text then None
      else if String.sub text i n = sub then Some i
      else go (i + 1)
    in
    go i
  in
  let start = Option.get (find_from 0 (Printf.sprintf "%S" section)) in
  let stop = Option.get (find_from start "]") in
  let rec collect i acc =
    match find_from i "{\"name\": " with
    | Some j when j < stop ->
      let name, unit_ =
        Scanf.sscanf (String.sub text j (stop - j)) "{\"name\": %S, \"unit\": %S" (fun n u -> (n, u))
      in
      collect (j + 1) ((name, unit_) :: acc)
    | _ -> List.rev acc
  in
  collect start []

let check_workload ~trace workload =
  let r =
    Bench.run ~scale:0.05 ~log:ignore ~workload ~seed:7 ~seconds:0.3 ~trace ()
  in
  let label = Printf.sprintf "%s trace=%b" workload trace in
  Alcotest.(check bool) (label ^ ": checks pass") true r.Bench.correct;
  Alcotest.(check int) (label ^ ": nothing failed") 0 r.Bench.failed;
  Alcotest.(check bool) (label ^ ": attempted") true (r.Bench.attempted >= 1);
  let got =
    List.sort compare (List.map (fun (m : Bench.metric) -> (m.name, m.unit_)) r.Bench.metrics)
  in
  let want = List.sort compare (declared (if trace then "per_layer" else "end_to_end")) in
  Alcotest.(check (list (pair string string))) (label ^ ": metrics and units") want got;
  List.iter
    (fun (m : Bench.metric) ->
      Alcotest.(check bool) (label ^ ": " ^ m.name ^ " is finite") true (Float.is_finite m.value))
    r.Bench.metrics

let test_metrics () =
  List.iter
    (fun w ->
      check_workload ~trace:false w;
      check_workload ~trace:true w)
    Gen.workloads

let test_seeded () =
  let bytes w seed = Marshal.to_string (Gen.inputs ~scale:0.05 w seed) [] in
  List.iter
    (fun w ->
      Alcotest.(check bool) (w ^ ": same seed, same inputs") true (bytes w 3 = bytes w 3);
      Alcotest.(check bool) (w ^ ": other seed, other inputs") false (bytes w 3 = bytes w 4))
    Gen.workloads

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "seeded inputs" `Quick test_seeded;
          Alcotest.test_case "every workload reports its metrics" `Slow test_metrics;
        ] );
    ]
