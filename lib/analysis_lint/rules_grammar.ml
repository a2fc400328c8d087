(* Grammar checks, over the desugared BNF.  Spans come from the provenance
   table built during desugaring (see Lint.of_provenance); prebuilt grammars
   (the built-in languages) run the same checks with dummy spans. *)

open Costar_grammar
open Costar_grammar.Symbols
module D = Diagnostic
module Loc = Costar_grammar.Loc

type ctx = {
  g : Grammar.t;
  anl : Analysis.t;
  file : string option;
  span_of : nonterminal -> Loc.span;
  describe : nonterminal -> string option;
      (* provenance note for synthesized nonterminals *)
  synth_parent : nonterminal -> nonterminal option;
      (* user rule a synthesized nonterminal was created in *)
}

let make_ctx ?file ?(span_of = fun _ -> Loc.dummy) ?(describe = fun _ -> None)
    ?(synth_parent = fun _ -> None) g =
  { g; anl = Analysis.make g; file; span_of; describe; synth_parent }

let diag ctx ?severity ~x ?(extra_notes = []) code message =
  let notes =
    match ctx.describe x with
    | Some note -> extra_notes @ [ note ]
    | None -> extra_notes
  in
  D.make ?severity ?file:ctx.file ~span:(ctx.span_of x) ~notes code message

let name ctx x = Grammar.nonterminal_name ctx.g x

let pp_cycle ctx cycle =
  String.concat " -> " (List.map (name ctx) cycle)

(* G001: unreachable nonterminals.  A synthesized nonterminal whose parent
   rule is itself unreachable is suppressed — the parent diagnostic already
   covers it. *)
let unreachable ctx =
  let acc = ref [] in
  for x = Grammar.num_nonterminals ctx.g - 1 downto 0 do
    if not (Analysis.reachable ctx.anl x) then begin
      let parent_also_dead =
        match ctx.synth_parent x with
        | Some p -> not (Analysis.reachable ctx.anl p)
        | None -> false
      in
      if not parent_also_dead then
        acc :=
          diag ctx ~severity:D.Warning ~x "G001"
            (Printf.sprintf
               "unreachable nonterminal `%s`: no derivation from the start \
                symbol `%s` uses it"
               (name ctx x)
               (name ctx (Grammar.start ctx.g)))
          :: !acc
    end
  done;
  !acc

(* G002: unproductive nonterminals (derive no terminal string).  Fatal when
   the start symbol itself is unproductive: the language is empty. *)
let unproductive ctx =
  let acc = ref [] in
  for x = Grammar.num_nonterminals ctx.g - 1 downto 0 do
    if not (Analysis.productive ctx.anl x) then begin
      let is_start = x = Grammar.start ctx.g in
      let severity = if is_start then D.Error else D.Warning in
      let message =
        if is_start then
          Printf.sprintf
            "start symbol `%s` is unproductive: it derives no terminal \
             string, so the language is empty"
            (name ctx x)
        else
          Printf.sprintf
            "unproductive nonterminal `%s`: it derives no terminal string, \
             so no input can ever match it"
            (name ctx x)
      in
      acc := diag ctx ~severity ~x "G002" message :: !acc
    end
  done;
  !acc

(* G003: left recursion, with an explicit cycle witness.  One diagnostic
   per distinct cycle: nonterminals already named on a reported witness are
   not reported again. *)
let left_recursion ctx =
  let bad = Left_recursion.left_recursive_nts ctx.g ctx.anl in
  let reported = Hashtbl.create 8 in
  List.filter_map
    (fun x ->
      if Hashtbl.mem reported x then None
      else
        match Left_recursion.witness ctx.g ctx.anl x with
        | None -> None
        | Some (kind, cycle) ->
          List.iter (fun y -> Hashtbl.replace reported y ()) cycle;
          let extra_notes =
            [ Printf.sprintf "cycle: %s" (pp_cycle ctx cycle) ]
            @
            match kind with
            | Left_recursion.Hidden ->
              [
                "the recursion is hidden behind a nullable prefix, so no \
                 token is consumed before re-entering the cycle";
              ]
            | _ -> []
          in
          Some
            (diag ctx ~severity:D.Error ~x ~extra_notes "G003"
               (Printf.sprintf
                  "%s left recursion on `%s`: CoStar's termination and \
                   correctness theorems require a non-left-recursive grammar"
                  (Left_recursion.kind_to_string kind)
                  (name ctx x))))
    (Int_set.elements bad)

(* G004/G005: LL(1) conflicts, classified FIRST/FIRST vs FIRST/FOLLOW and
   aggregated per nonterminal.  Informational: these are exactly the
   decision points where ALL(star) prediction (rather than a single-token
   table) is required. *)
let ll1_conflicts ctx =
  let g = ctx.g and anl = ctx.anl in
  let classify (c : Costar_ll1.Ll1.conflict) =
    match c.on with
    | None -> `First_follow
    | Some a ->
      let first_contribs =
        List.filter
          (fun ix ->
            Bitset.mem (Analysis.first_seq anl (Grammar.prod g ix).rhs) a)
          c.prods
      in
      if List.length first_contribs >= 2 then `First_first else `First_follow
  in
  let la_name = function
    | Some a -> "'" ^ Grammar.terminal_name g a ^ "'"
    | None -> "<eof>"
  in
  (* Aggregate per (nonterminal, kind), preserving first-seen order of
     lookaheads and production sets. *)
  let table = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (c : Costar_ll1.Ll1.conflict) ->
      let key = (c.nt, classify c) in
      let entry =
        match Hashtbl.find_opt table key with
        | Some e -> e
        | None ->
          let e = (ref [], ref []) in
          Hashtbl.add table key e;
          order := key :: !order;
          e
      in
      let las, prods = entry in
      las := !las @ [ la_name c.on ];
      List.iter
        (fun ix -> if not (List.mem ix !prods) then prods := !prods @ [ ix ])
        c.prods)
    (Costar_ll1.Ll1.conflicts g);
  List.rev !order
  |> List.sort (fun (x1, k1) (x2, k2) ->
         let c = compare x1 x2 in
         if c <> 0 then c else compare k1 k2)
  |> List.map (fun ((x, kind) as key) ->
         let las, prods = Hashtbl.find table key in
         let code, label =
           match kind with
           | `First_first -> ("G004", "FIRST/FIRST")
           | `First_follow -> ("G005", "FIRST/FOLLOW")
         in
         let las = !las in
         let shown = List.filteri (fun i _ -> i < 4) las in
         let la_text =
           String.concat ", " shown
           ^
           if List.length las > List.length shown then
             Printf.sprintf " (and %d more)"
               (List.length las - List.length shown)
           else ""
         in
         let extra_notes =
           List.filteri (fun i _ -> i < 3) !prods
           |> List.map (fun ix ->
                  Fmt.str "candidate: %a" (Grammar.pp_production g)
                    (Grammar.prod g ix))
         in
         diag ctx ~severity:D.Info ~x ~extra_notes code
           (Printf.sprintf
              "%s LL(1) conflict at `%s` on %s: ALL(*) prediction is \
               required here"
              label (name ctx x) la_text))

(* G006: textually identical alternatives of one nonterminal — every input
   they match is ambiguous. *)
let duplicate_alternatives ctx =
  let g = ctx.g in
  let acc = ref [] in
  for x = Grammar.num_nonterminals g - 1 downto 0 do
    let prods = Grammar.prods_of g x in
    let seen = ref [] in
    List.iter
      (fun ix ->
        let rhs = (Grammar.prod g ix).rhs in
        match
          List.find_opt
            (fun ix' -> compare_symbols (Grammar.prod g ix').rhs rhs = 0)
            !seen
        with
        | Some first_ix ->
          acc :=
            diag ctx ~severity:D.Warning ~x
              ~extra_notes:
                [
                  Fmt.str "every input matching %a has at least two parse \
                           trees"
                    (Grammar.pp_production g)
                    (Grammar.prod g first_ix);
                ]
              "G006"
              (Fmt.str "duplicate alternative for `%s`: %a appears more \
                        than once"
                 (name ctx x) (Grammar.pp_production g) (Grammar.prod g ix))
            :: !acc
        | None -> seen := !seen @ [ ix ])
      prods
  done;
  !acc

(* G007: nullable cycles [x =>+ x] — such a nonterminal has infinitely many
   derivations for any input it matches.  Cycle edges need the whole rest of
   the production nullable, so every G007 cycle is also left-recursive
   (G003); this diagnostic adds the stronger "infinitely ambiguous" fact. *)
let nullable_cycles ctx =
  let g = ctx.g and anl = ctx.anl in
  let n = Grammar.num_nonterminals g in
  let edges = Array.make n [] in
  Array.iter
    (fun (p : Grammar.production) ->
      let rec go before = function
        | [] -> ()
        | T _ :: _ -> ()
        | NT y :: rest ->
          if
            List.for_all (fun z -> Analysis.nullable anl z) before
            && Analysis.nullable_seq anl rest
          then
            if not (List.mem y edges.(p.lhs)) then
              edges.(p.lhs) <- edges.(p.lhs) @ [ y ];
          go (y :: before) rest
      in
      go [] p.rhs)
    (Grammar.prods g);
  (* BFS witness, as in Left_recursion.witness but over unit-cycle edges. *)
  let witness x =
    let parent = Array.make n (-1) in
    let visited = Array.make n false in
    let q = Queue.create () in
    let closing = ref None in
    let expand y =
      List.iter
        (fun z ->
          if !closing = None then
            if z = x then closing := Some y
            else if not visited.(z) then begin
              visited.(z) <- true;
              parent.(z) <- y;
              Queue.add z q
            end)
        edges.(y)
    in
    expand x;
    while !closing = None && not (Queue.is_empty q) do
      expand (Queue.pop q)
    done;
    match !closing with
    | None -> None
    | Some last ->
      let rec unwind y acc =
        if y = x then acc else unwind parent.(y) (y :: acc)
      in
      Some ((x :: unwind last []) @ [ x ])
  in
  let reported = Hashtbl.create 8 in
  let acc = ref [] in
  for x = 0 to n - 1 do
    if not (Hashtbl.mem reported x) then
      match witness x with
      | None -> ()
      | Some cycle ->
        List.iter (fun y -> Hashtbl.replace reported y ()) cycle;
        acc :=
          diag ctx ~severity:D.Error ~x
            ~extra_notes:[ Printf.sprintf "cycle: %s" (pp_cycle ctx cycle) ]
            "G007"
            (Printf.sprintf
               "nonterminal `%s` derives itself: any input it matches has \
                infinitely many parse trees"
               (name ctx x))
          :: !acc
  done;
  List.rev !acc

let all ctx =
  unreachable ctx @ unproductive ctx @ left_recursion ctx @ ll1_conflicts ctx
  @ duplicate_alternatives ctx @ nullable_cycles ctx
