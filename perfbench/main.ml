(* perfbench --workload NAME --seed N --seconds S --trace 0|1

   Prints human-readable lines, then one JSON result as the last line. *)

open Costar_perfbench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " Gen.workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " length of the measured loop");
      ("--trace", Arg.Set_int trace, " 1: traced run reporting per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Gen.workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  let r =
    Bench.run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ()
  in
  Printf.printf "workload %s seed %d trace %d\n" !workload !seed !trace;
  List.iter (fun (k, v) -> Printf.printf "property %s %s\n" k v) r.Bench.properties;
  Printf.printf "failed_share %s\n"
    (Bench.json_number (Bench.ratio_i r.Bench.failed r.Bench.attempted));
  Printf.printf "host_factor %s\n" (Bench.json_number r.Bench.host_factor);
  List.iter
    (fun (k, v) -> Printf.printf "%s %s\n" k (Bench.json_number v))
    r.Bench.kernel_report;
  List.iter
    (fun (m : Bench.metric) ->
      Printf.printf "raw %s %s %s\n" m.name (Bench.json_number m.value) m.unit_)
    r.Bench.raw;
  List.iter
    (fun (m : Bench.metric) ->
      Printf.printf "metric %s %s %s\n" m.name (Bench.json_number m.value) m.unit_)
    r.Bench.metrics;
  print_endline (Bench.to_json r)
