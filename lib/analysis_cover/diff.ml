(* Differential runner for generated corpora: one input, three engines.

   The verified-core parser is the reference; the Turbo engine must agree
   tree-for-tree and the Earley oracle must agree on the verdict (tree
   count 0 / 1 / ≥2 maps onto Reject / Unique / Ambig).  Two more
   obligations ride along on the reference run: the paper's §4 termination
   measure must strictly decrease across every machine step, and rejection
   diagnostics must carry sane positions.  Any violation is a one-line
   human-readable report; a run over a corpus is a fuzz gate. *)

open Costar_grammar
module P = Costar_core.Parser
module Measure = Costar_core.Measure
module Turbo = Costar_turbo.Turbo
module Count = Costar_earley.Count
module R = Costar_recover.Recover

let result_kind = function
  | P.Unique _ -> "Unique"
  | P.Ambig _ -> "Ambig"
  | P.Reject _ -> "Reject"
  | P.Error _ -> "Error"

(* Positions quoted in a rejection message must exist: a "line L" must be
   1-based and no further than one past the last input line (EOF errors
   point just past the end). *)
let position_sane toks msg =
  if String.length msg = 0 then Error "empty rejection message"
  else begin
    let max_line =
      List.fold_left (fun acc tok -> max acc tok.Token.line) 0 toks
    in
    let ok = ref (Ok ()) in
    let n = String.length msg in
    let key = "line " in
    let kl = String.length key in
    let i = ref 0 in
    while !ok = Ok () && !i + kl < n do
      if String.sub msg !i kl = key && msg.[!i + kl] >= '0' && msg.[!i + kl] <= '9'
      then begin
        let j = ref (!i + kl) in
        while !j < n && msg.[!j] >= '0' && msg.[!j] <= '9' do
          incr j
        done;
        let l = int_of_string (String.sub msg (!i + kl) (!j - !i - kl)) in
        if l < 1 || l > max_line + 1 then
          ok :=
            Error
              (Printf.sprintf "diagnostic quotes line %d, input has %d" l
                 max_line);
        i := !j
      end
      else incr i
    done;
    !ok
  end

(* Run one input through the trio.  [turbo] lets a caller reuse one cached
   engine across a corpus (the point of Turbo); a fresh one is created
   otherwise. *)
let verdict_kind = function
  | R.Recovered _ -> "Recovered"
  | R.Recovered_ambig _ -> "Recovered_ambig"
  | R.Fatal _ -> "Fatal"

let run ?turbo ?recover g toks =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf Result.error fmt in
  (* Reference parse, with the §4 measure checked at every machine step. *)
  let prev = ref None in
  let monotone = ref (Ok ()) in
  let word = Word.of_tokens toks in
  let reference =
    P.run_word (P.make g)
      ~inspect:(fun ctx st ->
        match !monotone with
        | Error _ -> ()
        | Ok () ->
          let m = Measure.meas g ctx st in
          (match !prev with
          | Some m0 when not (Measure.compare m m0 < 0) ->
            monotone := Error "the §4 termination measure failed to decrease"
          | _ -> ());
          prev := Some m)
      word
  in
  let* () = !monotone in
  let* () =
    match reference with
    | P.Error e -> err "core parser error: %s" (Costar_core.Types.error_to_string g e)
    | _ -> Ok ()
  in
  (* Turbo must agree with the core constructor-for-constructor and
     tree-for-tree. *)
  let t = match turbo with Some t -> t | None -> Turbo.create g in
  let fast = Turbo.parse t toks in
  let* () =
    match (reference, fast) with
    | P.Unique t1, P.Unique t2 | P.Ambig t1, P.Ambig t2 ->
      if Tree.equal t1 t2 then Ok ()
      else err "turbo/core tree mismatch on a %s parse" (result_kind reference)
    | P.Reject _, P.Reject _ -> Ok ()
    | r1, r2 ->
      err "turbo/core verdict mismatch: core %s, turbo %s" (result_kind r1)
        (result_kind r2)
  in
  (* Earley oracle: tree count 0/1/>=2 against Reject/Unique/Ambig; on a
     unique parse the trees must coincide. *)
  let count = Count.count_trees ~cap:2 g toks in
  let* () =
    match (reference, count) with
    | P.Reject _, 0 | P.Ambig _, 2 -> Ok ()
    | P.Unique t1, 1 -> (
      match Count.first_tree g toks with
      | Some t2 when Tree.equal t1 t2 -> Ok ()
      | Some _ -> Error "earley/core tree mismatch on a unique parse"
      | None -> Error "earley counted one tree but enumerated none")
    | r, n ->
      err "earley/core verdict mismatch: core %s, earley counts %s"
        (result_kind r)
        (if n >= 2 then ">=2" else string_of_int n)
  in
  (* Recovery lane: the error-recovery engine must be conservative on
     well-formed input (bit-identical tree, empty event list) and
     productive on malformed input (>=1 coded diagnostic, an error-marked
     partial tree), with the extended §4 measure strictly decreasing
     across every repair (the no-hang obligation — [verify_measure]
     raises on any violation, caught below). *)
  let* () =
    match recover with
    | None -> Ok ()
    | Some r -> (
      match R.run_word ~verify_measure:true r word with
      | exception e -> err "recovery engine raised: %s" (Printexc.to_string e)
      | o -> (
        match (reference, o.R.verdict, o.R.events) with
        | P.Unique t1, R.Recovered t2, [] ->
          if Tree.equal t1 t2 then Ok ()
          else Error "recovery changed the tree of a clean Unique parse"
        | P.Ambig t1, R.Recovered_ambig t2, [] ->
          if Tree.equal t1 t2 then Ok ()
          else Error "recovery changed the tree of a clean Ambig parse"
        | P.Reject _, (R.Recovered t | R.Recovered_ambig t), (_ :: _ as evs) ->
          if not (Tree.has_errors t) then
            Error
              "recovery of a rejected input produced a tree without error \
               nodes"
          else
            List.fold_left
              (fun acc (e : R.event) ->
                let* () = acc in
                position_sane toks e.R.diag.Costar_lint.Diagnostic.message)
              (Ok ()) evs
        | P.Error _, R.Fatal _, _ -> Ok ()
        | rr, v, evs ->
          err "recovery lane mismatch: core %s, recovery %s with %d events"
            (result_kind rr) (verdict_kind v) (List.length evs)))
  in
  (* Rejection diagnostics must be non-empty and position-sane. *)
  match reference with
  | P.Reject msg -> position_sane toks msg
  | _ -> Ok ()
