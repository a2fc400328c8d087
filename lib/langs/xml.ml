(** XML: grammar, lexer, and corpus generator.

    The [element] rule is the paper's §6.1 example verbatim: prediction must
    advance through an arbitrary number of attributes before it can tell an
    open tag from a self-closing one, so the grammar is not LL(k) for any k
    (experiment E7 demonstrates this with the LL(1) baseline).

    Deviations from ANTLR's XMLParser.g4: [content] is a flat repetition
    (our TEXT/SEA_WS tokens may alternate freely), and DTDs are out of
    scope. *)

open Costar_lex

let grammar_src =
  {|
    document  : prolog? misc2* element misc2* ;
    prolog    : XML_OPEN (attribute | SEA_WS)* SPECIAL_CLOSE ;
    misc2     : COMMENT | PI | SEA_WS ;
    element   : '<' NAME (attribute | SEA_WS)* '>' content '</' NAME '>'
              | '<' NAME (attribute | SEA_WS)* '/>' ;
    attribute : NAME '=' STRING ;
    content   : (element | reference | CDATA | PI | COMMENT | chardata)* ;
    chardata  : TEXT | SEA_WS | NAME ;
    reference : ENTITY_REF | CHAR_REF ;
  |}

let grammar =
  lazy
    (match Costar_ebnf.Parse.grammar_of_string ~start:"document" grammar_src with
    | Ok g -> g
    | Error msg -> failwith ("Xml.grammar: " ^ msg))

let scanner =
  lazy
    (let open Regex in
     let name_start = alt [ letter; set "_:" ] in
     let name_char = alt [ word_char; set ":.-" ] in
     (* Without lexer modes, TEXT must avoid every character that is
        structural inside tags; character runs that happen to be well-formed
        names lex as NAME, which [chardata] also accepts. *)
     let text_char = none_of "<&>=\"'?/ \t\r\n" in
     Scanner.make
       [
         Scanner.rule "XML_OPEN" (str "<?xml");
         Scanner.rule "SPECIAL_CLOSE" (str "?>");
         Scanner.rule "COMMENT"
           (seq [ str "<!--"; star (alt [ none_of "-"; seq [ chr '-'; none_of "-" ] ]); str "-->" ]);
         Scanner.rule "CDATA"
           (seq [ str "<![CDATA["; star (none_of "]"); str "]]>" ]);
         (* Processing-instruction targets start with an uppercase letter in
            this subset, so "<?xml" can only be the declaration open. *)
         Scanner.rule "PI"
           (seq [ str "<?"; upper; star name_char; star (none_of "?"); str "?>" ]);
         Scanner.rule "/>" (str "/>");
         Scanner.rule "</" (str "</");
         Scanner.rule "<" (chr '<');
         Scanner.rule ">" (chr '>');
         Scanner.rule "=" (chr '=');
         Scanner.rule "STRING"
           (alt
              [
                seq [ chr '"'; star (none_of "\"<"); chr '"' ];
                seq [ chr '\''; star (none_of "'<"); chr '\'' ];
              ]);
         Scanner.rule "ENTITY_REF" (seq [ chr '&'; plus letter; chr ';' ]);
         Scanner.rule "CHAR_REF" (seq [ str "&#"; plus digit; chr ';' ]);
         Scanner.rule "NAME" (seq [ name_start; star name_char ]);
         Scanner.rule "SEA_WS" (plus (set " \t\r\n"));
         Scanner.rule "TEXT" (plus text_char);
       ])

(* --- Generator --------------------------------------------------------- *)

let gen_attrs st =
  let n = Gen_util.int st 4 in
  for _ = 1 to n do
    Gen_util.addf st " %s=\"%s\"" (Gen_util.word st) (Gen_util.word st)
  done

let rec gen_element st depth =
  let tag = Gen_util.word st in
  if Gen_util.exhausted st || depth > 6 || Gen_util.chance st 0.2 then begin
    Gen_util.addf st "<%s" tag;
    gen_attrs st;
    Gen_util.add st "/>"
  end
  else begin
    Gen_util.addf st "<%s" tag;
    gen_attrs st;
    Gen_util.add st ">";
    let kids = 1 + Gen_util.int st 4 in
    for _ = 1 to kids do
      match Gen_util.int st 6 with
      | 0 -> Gen_util.addf st "%s %s" (Gen_util.word st) (Gen_util.word st)
      | 1 -> Gen_util.addf st "<!-- %s -->" (Gen_util.word st)
      | 2 -> Gen_util.addf st "&amp;"
      | _ -> gen_element st (depth + 1)
    done;
    Gen_util.addf st "</%s>" tag
  end

let generate ~seed ~size =
  let st = Gen_util.create ~seed ~size in
  Gen_util.add st "<?xml version=\"1.0\"?>\n";
  Gen_util.add st "<root>";
  while not (Gen_util.exhausted st) do
    gen_element st 0;
    Gen_util.add st "\n"
  done;
  Gen_util.add st "</root>\n";
  Gen_util.contents st

let lang = Lang.make ~name:"xml" ~grammar ~scanner ~generate ()
