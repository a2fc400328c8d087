open Costar_grammar

let adaptive_predict g anl cache x ~conts stack w i =
  match Grammar.prods_of g x with
  | [] ->
    (* A nonterminal with no productions derives nothing. *)
    (Types.Reject_pred, 0)
  | [ ix ] ->
    (* A single alternative needs no lookahead; SLL would answer
       [Unique_pred ix] before consuming any token.  The result pair is
       shared (preallocated per production) — this path runs on every
       push. *)
    Cache.unique_at cache ix
  | _ -> (
    Instr.record_cov_decision x;
    match Sll.predict g anl cache x w i with
    | (Types.Ambig_pred _, _) ->
      (* The SLL overapproximation saw several survivors; re-predict in
         exact LL mode before committing (paper, §3.4: failover). *)
      Ll.predict g anl x (conts stack) w i
    | r -> r)
