(* Source lint for the fom libraries.

   Scans the .ml and .mli files under each DIR for constructs banned
   from library code and reports them as FOM-L diagnostics:

     FOM-L001  assert       input validation must go through Fom_check
     FOM-L002  failwith     errors must be structured diagnostics
     FOM-L003  exit         libraries must not terminate the process
     FOM-L004  List.hd / List.tl / Option.get   partial stdlib calls
     FOM-L005  .ml file without a corresponding .mli
     FOM-L006  let-bound partial application of Checker.ensure, e.g.
               [let ensure = Fom_check.Checker.ensure ~code:"..."]:
               without flambda every call through such a binding
               allocates a closure application (about 12 words), so
               hot paths must eta-expand it
               ([let ensure ~path cond msg = ... ~path cond msg])
     FOM-L009  a Printf.sprintf or ^ written directly in an argument
               of a Checker rule combinator (check, min_int, ...,
               within, ensure): arguments are evaluated before the
               rule runs, so that message or path is built even when
               the rule passes. Build it under Checker.fail in the
               failing branch, or give the path's prefix to within
     FOM-L007  Stdlib.min / Stdlib.max, qualified or bare: without
               flambda they call the C polymorphic compare (3-4x the
               cost of [Int.min]/[Int.max] on ints), so library code
               names the type's own [Int.min], [Float.max], ...
     FOM-L008  a [val] in an .mli under DIR that no .ml outside its
               own module references. Callers are the .ml files under
               lib/, bin/, bench/, examples/, perfbench/ and tools/
               (but not tools/lint/fixture/), relative to where the
               lint runs; test/ does not count.
               A reference is the val's name qualified by its module's
               name or an alias of it ([Stats.mean], [module M =
               Fom_uarch.Config] then [M.create]), or a bare name
               inside a local open ([M.( ... )], [M.[ ... ]]). A val of
               a nested signature is qualified by its inner module's
               name. A val named like a type of its signature counts
               only where an argument follows it, since
               [Hierarchy.config option] names the type. Modules that
               share a name share their references, so the rule can
               miss a dead export but never flags a live one. The
               report says whether the val is used inside its module
               at all.
     FOM-L010  an optional parameter [?l] of a [val] in an .mli under
               DIR that no caller sets: no .ml of FOM-L008's callers
               outside the val's own module passes [~l] or [?l] in an
               application of the val, reached as FOM-L008 reaches
               it (qualified, through a module alias or in a local
               open). The application's labels are those at its own
               bracket depth up to its end (a keyword that ends an
               application, an unmatched closing bracket, [;], [,],
               [|] or [->]); a label inside a nested bracket belongs
               to the call there. test/ does not count, so a setting
               that only tests turn is reported; its default should
               be a constant.

   An allowlist file grants sanctioned exceptions, one per line:

     <relative-path> <construct>     # rationale

   where <construct> is the banned token (e.g. [assert]), or for
   FOM-L008 the val's name in its .mli ([Acc.mean] for a val of the
   inner module [Acc]), and for FOM-L010 that name and the label
   ([make?mul]). An allowlist entry that matches no finding is itself
   an error (FOM-L000), so the list cannot rot. Exit status is 1 if
   any non-allowlisted finding or unused entry remains. *)

let usage () =
  prerr_endline "usage: lint --allowlist FILE DIR...";
  exit 2

type finding = { file : string; line : int; code : string; construct : string; text : string }

(* --- comment / string stripping ------------------------------------- *)

(* Replace comment and string-literal bodies with spaces so token
   scanning never fires inside them; newlines are preserved, keeping
   line numbers accurate. *)
let strip src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if Bytes.get out i <> '\n' then Bytes.set out i ' ' in
  let i = ref 0 in
  let comment_depth = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if !comment_depth > 0 then begin
      if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
        incr comment_depth;
        blank !i;
        blank (!i + 1);
        i := !i + 2
      end
      else if c = '*' && !i + 1 < n && src.[!i + 1] = ')' then begin
        decr comment_depth;
        blank !i;
        blank (!i + 1);
        i := !i + 2
      end
      else begin
        blank !i;
        incr i
      end
    end
    else if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
      comment_depth := 1;
      blank !i;
      blank (!i + 1);
      i := !i + 2
    end
    else if c = '"' then begin
      (* String literal: skip to the unescaped closing quote. *)
      blank !i;
      incr i;
      let closed = ref false in
      while (not !closed) && !i < n do
        (match src.[!i] with
        | '\\' when !i + 1 < n ->
            blank !i;
            blank (!i + 1);
            i := !i + 1
        | '"' -> closed := true
        | _ -> blank !i);
        incr i
      done
    end
    else if c = '\'' && !i + 2 < n && (src.[!i + 1] = '\\' || src.[!i + 2] = '\'') then begin
      (* Character literal (covers '"' and '\\'' which would otherwise
         derail string stripping); type variables like 'a have no
         closing quote and fall through untouched. *)
      let j = if src.[!i + 1] = '\\' then !i + 3 else !i + 2 in
      let j = Stdlib.min j (n - 1) in
      for k = !i to j do
        blank k
      done;
      i := j + 1
    end
    else incr i
  done;
  Bytes.to_string out

(* --- token scan ------------------------------------------------------ *)

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' || c = '\''

(* [find_token line tok] finds [tok] in [line] at identifier
   boundaries; a leading '.' also disqualifies (a module-qualified name
   like [X.exit] is that module's function, not Stdlib's). *)
let has_bare_token line tok =
  let n = String.length line and m = String.length tok in
  let rec search from =
    if from + m > n then false
    else
      match String.index_from_opt line from tok.[0] with
      | None -> false
      | Some k ->
          if
            k + m <= n
            && String.sub line k m = tok
            && (k = 0 || (not (is_ident_char line.[k - 1])) && line.[k - 1] <> '.')
            && (k + m = n || not (is_ident_char line.[k + m]))
          then true
          else search (k + 1)
  in
  search 0

(* Qualified calls keep their dot: [Option.get] must match exactly,
   but not [My_option.get]. *)
let has_qualified line tok =
  let n = String.length line and m = String.length tok in
  let rec search from =
    if from + m > n then false
    else
      match String.index_from_opt line from tok.[0] with
      | None -> false
      | Some k ->
          if
            k + m <= n
            && String.sub line k m = tok
            && (k = 0 || not (is_ident_char line.[k - 1] || line.[k - 1] = '.'))
            && (k + m = n || not (is_ident_char line.[k + m]))
          then true
          else search (k + 1)
  in
  search 0

let bare_bans = [ ("assert", "FOM-L001"); ("failwith", "FOM-L002"); ("exit", "FOM-L003") ]
let qualified_bans = [ "List.hd"; "List.tl"; "Option.get" ]

(* FOM-L007: a use of the polymorphic [min]/[max] as a value. A bare
   name counts unless it is a label ([~min], [?max]), a field or
   another module's function ([t.min], [Int.max]), being defined
   ([let min], [and max]), or a field or label being given a value or
   type ([min = ...], [max : ...]). Reported under its qualified name,
   which is also the allowlist construct. *)
let polymorphic_minmax line =
  let n = String.length line in
  let rec skip_blanks k = if k < n && line.[k] = ' ' then skip_blanks (k + 1) else k in
  (* The identifier ending just before [k], blanks skipped. *)
  let word_before k =
    let e = ref (k - 1) in
    while !e >= 0 && line.[!e] = ' ' do
      decr e
    done;
    let s = ref !e in
    while !s >= 0 && is_ident_char line.[!s] do
      decr s
    done;
    String.sub line (!s + 1) (!e - !s)
  in
  let used k tok =
    String.sub line k 3 = tok
    && (k + 3 = n || not (is_ident_char line.[k + 3]))
    &&
    if k >= 7 && String.sub line (k - 7) 7 = "Stdlib." then
      k = 7 || not (is_ident_char line.[k - 8] || line.[k - 8] = '.')
    else
      (k = 0 || not (is_ident_char line.[k - 1] || String.contains ".~?`" line.[k - 1]))
      && (match word_before k with "let" | "and" | "rec" -> false | _ -> true)
      &&
      let c = skip_blanks (k + 3) in
      c >= n || (line.[c] <> ':' && line.[c] <> '=')
  in
  List.filter_map
    (fun tok ->
      let rec any k = k + 3 <= n && (used k tok || any (k + 1)) in
      if any 0 then Some ("Stdlib." ^ tok) else None)
    [ "min"; "max" ]

(* FOM-L006: [let <name> = <Path.>Checker.ensure ...], i.e. no
   parameters between the bound name and [=]. Scans the whole stripped
   source, so a binding split across lines is caught too; returns the
   line of each offending [let]. *)
let partial_ensures stripped =
  let tok = "Checker.ensure" in
  let n = String.length stripped and m = String.length tok in
  let is_space c = c = ' ' || c = '\n' || c = '\t' || c = '\r' in
  let rec skip_space k = if k >= 0 && is_space stripped.[k] then skip_space (k - 1) else k in
  (* Start of the identifier that ends just before [k]. *)
  let rec ident_start k =
    if k > 0 && is_ident_char stripped.[k - 1] then ident_start (k - 1) else k
  in
  (* The word ending at or before [k], blanks skipped: its text and start. *)
  let word_before k =
    let e = skip_space k in
    if e < 0 || not (is_ident_char stripped.[e]) then None
    else
      let s = ident_start (e + 1) in
      Some (String.sub stripped s (e - s + 1), s)
  in
  (* Start of the module path qualifying the name at [k]. *)
  let rec path_start k =
    if k > 1 && stripped.[k - 1] = '.' && is_ident_char stripped.[k - 2] then
      path_start (ident_start (k - 1))
    else k
  in
  let binding_start k =
    let e = skip_space (path_start k - 1) in
    if e < 1 || stripped.[e] <> '=' || not (is_space stripped.[e - 1] || is_ident_char stripped.[e - 1])
    then None
    else
      match word_before (e - 1) with
      | None -> None
      | Some (_, s) -> (
          match word_before (s - 1) with
          | Some (("let" | "and"), l) -> Some l
          | Some _ | None -> None)
  in
  let rec search from acc =
    match if from + m > n then None else String.index_from_opt stripped from tok.[0] with
    | None -> List.rev acc
    | Some k ->
        let is_tok =
          k + m <= n
          && String.sub stripped k m = tok
          && (k = 0 || stripped.[k - 1] = '.' || not (is_ident_char stripped.[k - 1]))
          && (k + m = n || not (is_ident_char stripped.[k + m]))
        in
        let acc =
          match if is_tok then binding_start k else None with Some l -> l :: acc | None -> acc
        in
        search (k + 1) acc
  in
  let line_of pos =
    let line = ref 1 in
    String.iteri (fun i c -> if i < pos && c = '\n' then incr line) stripped;
    !line
  in
  List.map line_of (search 0 [])

(* A stripped source as identifiers and single punctuation characters,
   each with its line. *)
let located_tokens src =
  let n = String.length src in
  let rec go k line acc =
    if k >= n then List.rev acc
    else if is_ident_char src.[k] then begin
      let e = ref k in
      while !e < n && is_ident_char src.[!e] do
        incr e
      done;
      go !e line ((String.sub src k (!e - k), line) :: acc)
    end
    else if src.[k] = '\n' then go (k + 1) (line + 1) acc
    else if String.contains " \t\r" src.[k] then go (k + 1) line acc
    else go (k + 1) line ((String.make 1 src.[k], line) :: acc)
  in
  go 0 1 []

let tokens src = List.map fst (located_tokens src)

let is_module w = w <> "" && w.[0] >= 'A' && w.[0] <= 'Z'
let is_value w = w <> "" && ((w.[0] >= 'a' && w.[0] <= 'z') || w.[0] = '_')

(* [module X = P.M] and [let module X = P.M in], anywhere: X is an
   alias of M. *)
let rec aliases acc = function
  | "module" :: x :: "=" :: m :: rest when is_module x && is_module m ->
      let rec last m = function "." :: m' :: rest when is_module m' -> last m' rest | _ -> m in
      aliases ((x, last m rest) :: acc) rest
  | _ :: rest -> aliases acc rest
  | [] -> acc

(* The Checker combinators FOM-L009 checks ([fail] runs only on a
   failing branch), and the keywords that end an application. *)
let eager_combinators =
  [ "check"; "min_int"; "min_float"; "positive_float"; "fraction"; "positive_fraction";
    "sum_to_one"; "within"; "ensure" ]

let ends_application =
  [ "in"; "then"; "else"; "with"; "and"; "let"; "do"; "done"; "end"; "when"; "match"; "if";
    "fun"; "function"; "begin"; "to"; "downto"; "or"; "mod"; "land"; "lor"; "lxor"; "lsl";
    "lsr"; "asr" ]

(* FOM-L009: a [Printf.sprintf] or [^] directly inside a parenthesised
   argument of a Checker combinator that evaluates its arguments
   whether or not the rule passes. The combinator is [Checker.name] or
   [C.name] for any alias [C] of [Checker]; its application runs until
   a closing bracket, an infix operator or a keyword at its own depth.
   Only the top level of each argument counts, so a formatted message
   under [fail] in a branch nested inside a [within] argument is not
   flagged. Returns the line of each offending combinator. *)
let eager_arguments stripped =
  let toks = Array.of_list (located_tokens stripped) in
  let n = Array.length toks in
  let tok k = if k >= 0 && k < n then fst toks.(k) else "" in
  let checkers =
    "Checker"
    :: List.filter_map
         (fun (x, m) -> if m = "Checker" then Some x else None)
         (aliases [] (Array.to_list (Array.map fst toks)))
  in
  (* Whether the application whose arguments start at [k] has an eager
     argument. *)
  let rec eager k depth =
    if k >= n then false
    else
      let t = tok k in
      match t with
      | "(" | "[" | "{" -> eager (k + 1) (depth + 1)
      | ")" | "]" | "}" -> depth > 0 && eager (k + 1) (depth - 1)
      | ("^" | "sprintf" | "asprintf") when depth = 1 -> true
      | _ when depth > 0 -> eager (k + 1) depth
      | "~" | "?" | "." | "\"" | "'" | "!" -> eager (k + 1) depth
      | ":" when tok (k - 2) = "~" || tok (k - 2) = "?" -> eager (k + 1) depth
      | _ when List.mem t ends_application -> false
      | _ when is_ident_char t.[0] -> eager (k + 1) depth
      | _ -> false
  in
  let rec scan k acc =
    if k + 2 >= n then List.rev acc
    else if
      List.mem (tok k) checkers
      && tok (k + 1) = "."
      && List.mem (tok (k + 2)) eager_combinators
      && eager (k + 3) 0
    then scan (k + 3) (snd toks.(k) :: acc)
    else scan (k + 1) acc
  in
  scan 0 []

let read_file path =
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  src

let scan_file path =
  let src = read_file path in
  let stripped = strip src in
  let raw_lines = Array.of_list (String.split_on_char '\n' src) in
  let findings = ref [] in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      let text = raw_lines.(idx) in
      List.iter
        (fun (tok, code) ->
          if has_bare_token line tok then
            findings := { file = path; line = lineno; code; construct = tok; text } :: !findings)
        bare_bans;
      List.iter
        (fun tok ->
          if has_qualified line tok then
            findings :=
              { file = path; line = lineno; code = "FOM-L004"; construct = tok; text }
              :: !findings)
        qualified_bans;
      List.iter
        (fun construct ->
          findings :=
            { file = path; line = lineno; code = "FOM-L007"; construct; text } :: !findings)
        (polymorphic_minmax line))
    (String.split_on_char '\n' stripped);
  List.iter
    (fun line ->
      findings :=
        { file = path; line; code = "FOM-L006"; construct = "partial-ensure";
          text = raw_lines.(line - 1) }
        :: !findings)
    (partial_ensures stripped);
  List.iter
    (fun line ->
      findings :=
        { file = path; line; code = "FOM-L009"; construct = "eager-argument";
          text = raw_lines.(line - 1) }
        :: !findings)
    (eager_arguments stripped);
  List.rev !findings

(* --- filesystem walk ------------------------------------------------- *)

(* The files under [dir] whose names end in [suffix]. *)
let rec walk suffix dir acc =
  Array.fold_left
    (fun acc entry ->
      let path = Filename.concat dir entry in
      if Sys.is_directory path then walk suffix path acc
      else if Filename.check_suffix entry suffix then path :: acc
      else acc)
    acc
    (let entries = Sys.readdir dir in
     Array.sort compare entries;
     entries)

(* --- FOM-L008: exports without callers ------------------------------- *)

(* Directories, relative to where the lint runs, whose .ml files count
   as callers of a library export. test/ is left out: an export that
   only tests use is surface that no caller needs. So is the lint's
   own fixture tree under tools/, whose labels would hide FOM-L010
   findings. *)
let caller_dirs = [ "lib"; "bin"; "bench"; "examples"; "perfbench"; "tools" ]
let fixture_dir = Filename.concat "tools" (Filename.concat "lint" "fixture")

(* A val of a library interface. [qualifier] is the module name a
   caller writes before [name]; [construct] names the val in the
   allowlist: [name], or [M.name] for a val of an inner module [M].
   [typed] when the same signature declares a type [name] too. *)
type export = {
  mli : string;
  line : int;
  qualifier : string;
  name : string;
  construct : string;
  text : string;
  typed : bool;
}

(* The vals [mli] declares, inside [module M : sig ... end] too (one
   level of nesting). *)
let exports mli =
  let src = read_file mli in
  let raw_lines = Array.of_list (String.split_on_char '\n' src) in
  let file_module = String.capitalize_ascii (Filename.remove_extension (Filename.basename mli)) in
  let inner = ref None in
  let qualifier () = Option.value !inner ~default:file_module in
  let types = ref [] in
  let vals =
    List.concat
      (List.mapi
         (fun idx line ->
           match tokens line with
           | "module" :: m :: ":" :: "sig" :: _ ->
               inner := Some m;
               []
           | "end" :: _ ->
               inner := None;
               []
           | "type" :: rest ->
               (* The name follows the parameters: ['a t], [('k, 'v) t]. *)
               Option.iter
                 (fun name -> types := (qualifier (), name) :: !types)
                 (List.find_opt is_value rest);
               []
           | "val" :: name :: _ ->
               let construct = match !inner with Some m -> m ^ "." ^ name | None -> name in
               [ (qualifier (), name, construct, idx) ]
           | _ -> [])
         (String.split_on_char '\n' (strip src)))
  in
  List.map
    (fun (qualifier, name, construct, idx) ->
      { mli; line = idx + 1; qualifier; name; construct; text = raw_lines.(idx);
        typed = List.mem (qualifier, name) !types })
    vals

(* Words after which a qualified name is not applied: keywords that
   end an expression or a declaration, and the postfix type
   constructors of [Q.v option]. *)
let not_arguments =
  ends_application
  @ [ "type"; "val"; "module"; "open"; "include"; "exception"; "external"; "of"; "as";
      "constraint"; "option"; "list"; "array"; "ref" ]

(* Whether the tokens after a name start an argument: an identifier, a
   literal, [(], [[], [~] or [?]. A name in a type is never followed by
   one, so an applied use is a use of the val, not of a same-named
   type ([Hierarchy.config option]). *)
let argument_follows = function
  | tok :: _ when is_value tok -> not (List.mem tok not_arguments)
  | tok :: _ -> List.mem tok [ "("; "["; "~"; "?"; "\"" ] || (tok.[0] >= '0' && tok.[0] <= '9')
  | [] -> false

(* The labels ([~l] or [?l]) of the application whose arguments start
   at [toks], up to its end: a keyword of [ends_application], an
   unmatched closing bracket, [;], [,], [|] or [->]. A label inside a
   nested bracket belongs to the call there. *)
let applied_labels toks =
  let rec go depth acc = function
    | ("(" | "[" | "{") :: rest -> go (depth + 1) acc rest
    | (")" | "]" | "}") :: rest -> if depth = 0 then acc else go (depth - 1) acc rest
    | ("~" | "?") :: label :: rest when depth = 0 && is_value label -> go depth (label :: acc) rest
    | (";" | "," | "|") :: _ when depth = 0 -> acc
    | "-" :: ">" :: _ when depth = 0 -> acc
    | tok :: _ when depth = 0 && List.mem tok ends_application -> acc
    | _ :: rest -> go depth acc rest
    | [] -> acc
  in
  go 0 [] toks

(* A caller's use of a val: in which file, whether an argument follows
   it and the labels its application passes. *)
type reference = { caller : string; applied : bool; labels : string list }

(* Every (qualifier, name, tokens after the name) a caller's tokens
   reference: [Q.name], and each bare name inside a local open
   [Q.( ... )] or [Q.[ ... ]]. *)
let rec references acc = function
  | q :: "." :: v :: rest when is_module q && is_value v ->
      references ((q, v, rest) :: acc) (v :: rest)
  | q :: "." :: (("(" | "[") :: body as rest) when is_module q ->
      let rec opened depth prev acc = function
        | [] -> acc
        | tok :: body ->
            let depth =
              match tok with "(" | "[" | "{" -> depth + 1 | ")" | "]" | "}" -> depth - 1 | _ -> depth
            in
            if depth = 0 then acc
            else
              let acc = if is_value tok && prev <> "." then (q, tok, body) :: acc else acc in
              opened depth tok acc body
      in
      references (opened 1 "" acc body) rest
  | _ :: rest -> references acc rest
  | [] -> acc

(* Whether [name] occurs in [ml]'s tokens other than where it is bound
   or selected from another value. *)
let used_within ml name =
  let rec scan prev = function
    | [] -> false
    | tok :: rest ->
        (tok = name
        && not (List.mem prev [ "let"; "and"; "rec"; "mutable"; "."; "~"; "?"; "val"; "type" ]))
        || scan tok rest
  in
  Sys.file_exists ml && scan "" (tokens (strip (read_file ml)))

(* A table from each (module, name) the caller .ml files reference to
   its references. A reference counts for every module of its
   qualifier's name and for the target of every alias of that name,
   across all callers. *)
let caller_references () =
  let callers =
    List.concat_map
      (fun dir -> if Sys.file_exists dir then List.sort compare (walk ".ml" dir []) else [])
      caller_dirs
    |> List.filter (fun file -> not (String.starts_with ~prefix:fixture_dir file))
  in
  let sources = List.map (fun file -> (file, tokens (strip (read_file file)))) callers in
  let alias_of = List.fold_left (fun acc (_, toks) -> aliases acc toks) [] sources in
  let referenced = Hashtbl.create 1024 in
  List.iter
    (fun (file, toks) ->
      List.iter
        (fun (q, v, rest) ->
          let r = { caller = file; applied = argument_follows rest; labels = applied_labels rest } in
          List.iter
            (fun m -> Hashtbl.add referenced (m, v) r)
            (q :: List.filter_map (fun (x, m) -> if x = q then Some m else None) alias_of))
        (references [] toks))
    sources;
  referenced

(* FOM-L008 findings for the vals of the .mli files under [roots]. A
   reference counts from any caller .ml but the val's own module's, so
   two modules sharing a name can hide a dead export but never flag a
   live one. A val that shares its name with a type of its signature
   counts only applied references. *)
let unused_exports roots referenced =
  List.concat_map
    (fun root ->
      List.concat_map
        (fun mli ->
          let own = Filename.remove_extension mli ^ ".ml" in
          List.filter_map
            (fun e ->
              let counts r = r.caller <> own && (r.applied || not e.typed) in
              if List.exists counts (Hashtbl.find_all referenced (e.qualifier, e.name)) then None
              else
                let why =
                  if used_within own e.name then "is used only inside its module"
                  else "has no reference at all"
                in
                Some (e, why))
            (exports mli))
        (List.sort compare (walk ".mli" root [])))
    roots

(* --- FOM-L010: optional parameters without callers -------------------- *)

(* The optional labels of the vals [mli] declares, as
   [(export, label, line)]: each [?l :] between a [val] and the next
   signature item. *)
let optional_labels mli =
  let vals = exports mli in
  let rec go current acc = function
    | [] -> List.rev acc
    | ("val", line) :: ((name, _) :: _ as rest) ->
        go (List.find_opt (fun e -> e.line = line && e.name = name) vals) acc rest
    | (("type" | "module" | "end" | "exception" | "external" | "include"), _) :: rest ->
        go None acc rest
    | ("?", line) :: (label, _) :: (":", _) :: rest when is_value label -> (
        match current with
        | Some e -> go current ((e, label, line) :: acc) rest
        | None -> go current acc rest)
    | _ :: rest -> go current acc rest
  in
  go None [] (located_tokens (strip (read_file mli)))

(* FOM-L010 findings for the .mli files under [roots]: an optional
   label is set when an application of its val in some caller .ml
   other than the val's own module passes [~label] or [?label]. *)
let unset_options roots referenced =
  List.concat_map
    (fun root ->
      List.concat_map
        (fun mli ->
          let own = Filename.remove_extension mli ^ ".ml" in
          let raw_lines = Array.of_list (String.split_on_char '\n' (read_file mli)) in
          List.filter_map
            (fun (e, label, line) ->
              let sets r = r.caller <> own && List.mem label r.labels in
              if List.exists sets (Hashtbl.find_all referenced (e.qualifier, e.name)) then None
              else Some (e, label, line, raw_lines.(line - 1)))
            (optional_labels mli))
        (List.sort compare (walk ".mli" root [])))
    roots

(* --- allowlist ------------------------------------------------------- *)

let load_allowlist path =
  let ic = open_in path in
  let entries = ref [] in
  (try
     while true do
       let line = input_line ic in
       let line =
         match String.index_opt line '#' with
         | Some k -> String.sub line 0 k
         | None -> line
       in
       match
         String.split_on_char ' ' (String.trim line) |> List.filter (fun s -> s <> "")
       with
       | [] -> ()
       | [ file; construct ] -> entries := (file, construct) :: !entries
       | _ ->
           Printf.eprintf "lint: malformed allowlist line %S in %s\n" line path;
           exit 2
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !entries

(* --- main ------------------------------------------------------------ *)

let () =
  let allowlist_path = ref None in
  let roots = ref [] in
  let rec parse = function
    | [] -> ()
    | "--allowlist" :: file :: rest ->
        allowlist_path := Some file;
        parse rest
    | "--allowlist" :: [] -> usage ()
    | dir :: rest ->
        roots := dir :: !roots;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !roots = [] then usage ();
  let allowlist = match !allowlist_path with Some p -> load_allowlist p | None -> [] in
  let used = Array.make (List.length allowlist) false in
  let allowed file construct =
    let rec find k = function
      | [] -> false
      | (f, c) :: rest ->
          if f = file && c = construct then begin
            used.(k) <- true;
            true
          end
          else find (k + 1) rest
    in
    find 0 allowlist
  in
  let files = List.concat_map (fun root -> List.sort compare (walk ".ml" root [])) (List.rev !roots) in
  let errors = ref 0 in
  List.iter
    (fun file ->
      if not (Sys.file_exists (file ^ "i")) then
        if allowed file "missing-mli" then ()
        else begin
          Printf.printf "error[FOM-L005] %s: no corresponding .mli interface\n" file;
          incr errors
        end;
      List.iter
        (fun f ->
          if not (allowed f.file f.construct) then begin
            Printf.printf "error[%s] %s:%d: banned construct %s\n  %s\n" f.code f.file f.line
              f.construct (String.trim f.text);
            incr errors
          end)
        (scan_file file))
    files;
  let referenced = caller_references () in
  List.iter
    (fun (e, why) ->
      if not (allowed e.mli e.construct) then begin
        Printf.printf "error[FOM-L008] %s:%d: export %s %s (test/ does not count)\n  %s\n"
          e.mli e.line e.construct why (String.trim e.text);
        incr errors
      end)
    (unused_exports (List.rev !roots) referenced);
  List.iter
    (fun (e, label, line, text) ->
      if not (allowed e.mli (e.construct ^ "?" ^ label)) then begin
        Printf.printf
          "error[FOM-L010] %s:%d: optional ?%s of %s is set by no caller (test/ does not count)\n  %s\n"
          e.mli line label e.construct (String.trim text);
        incr errors
      end)
    (unset_options (List.rev !roots) referenced);
  List.iteri
    (fun k (file, construct) ->
      if not used.(k) then begin
        Printf.printf "error[FOM-L000] allowlist entry unused: %s %s\n" file construct;
        incr errors
      end)
    allowlist;
  if !errors > 0 then begin
    Printf.printf "%d lint error%s\n" !errors (if !errors = 1 then "" else "s");
    exit 1
  end
  else print_endline "lint: clean"
