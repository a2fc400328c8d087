open Costar_grammar

let adaptive_predict g anl cache x ~conts s1 s2 w i =
  let e = Cache.decision cache x w i in
  if e >= 0 && not !Instr.cov_enabled then begin
    (* Warm: the first-token table settles the decision with one read.
       Coverage needs the DFA state ids, so it always walks. *)
    Instr.record_table_hit x e ~at_end:(i >= w.Word.len);
    Cache.unique_at cache (e lsr 2)
  end
  else
    match Grammar.prods_of g x with
    | [] ->
      (* A nonterminal with no productions derives nothing. *)
      (Types.Reject_pred, 0)
    | [ ix ] ->
      (* A single alternative needs no lookahead; SLL would answer
         [Unique_pred ix] before consuming any token.  The result pair is
         shared (preallocated per production). *)
      Cache.unique_at cache ix
    | _ ->
      Instr.record_cov_decision x;
      let r =
        match Sll.predict g anl cache x w i with
        | (Types.Ambig_pred _, _) ->
          (* The SLL overapproximation saw several survivors; re-predict in
             exact LL mode before committing (paper, §3.4: failover). *)
          Ll.predict g anl x (conts s1 s2) w i
        | r -> r
      in
      (* Only an unknown entry is worth learning ([-2] is a settled miss). *)
      if e = -1 then Cache.learn cache x w i;
      r
