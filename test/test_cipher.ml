(* RFC 8439 vectors for ChaCha20 and round-trip/tamper tests for the AEAD. *)

open Peace_cipher
open Peace_hash

let hex_to_string h =
  let n = String.length h / 2 in
  String.init n (fun i -> Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let rfc_key = String.init 32 Char.chr

let test_chacha20_block () =
  (* RFC 8439 section 2.3.2 *)
  let nonce = hex_to_string "000000090000004a00000000" in
  let ks = Chacha20.block ~key:rfc_key ~nonce ~counter:1 in
  Alcotest.(check string) "block vector"
    "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4ed2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    (Sha256.to_hex ks)

let test_chacha20_encrypt () =
  (* RFC 8439 section 2.4.2 *)
  let nonce = hex_to_string "000000000000004a00000000" in
  let plaintext =
    "Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it."
  in
  let ciphertext = Chacha20.xor ~key:rfc_key ~nonce ~counter:1 plaintext in
  Alcotest.(check string) "ciphertext vector"
    "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0bf91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d807ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab77937365af90bbf74a35be6b40b8eedf2785e42874d"
    (Sha256.to_hex ciphertext);
  Alcotest.(check string) "xor round trip" plaintext
    (Chacha20.xor ~key:rfc_key ~nonce ~counter:1 ciphertext)

let test_chacha20_errors () =
  Alcotest.check_raises "short key" (Invalid_argument "Chacha20: key must be 32 bytes")
    (fun () -> ignore (Chacha20.block ~key:"short" ~nonce:(String.make 12 '\000') ~counter:0));
  Alcotest.check_raises "short nonce"
    (Invalid_argument "Chacha20: nonce must be 12 bytes") (fun () ->
      ignore (Chacha20.block ~key:rfc_key ~nonce:"short" ~counter:0))

let key = String.init 32 (fun i -> Char.chr (255 - i))
let nonce = String.make 12 '\x42'

let test_aead_round_trip () =
  let plaintext = "attack at dawn" and aad = "session-0042" in
  let sealed = Aead.encrypt ~key ~nonce ~aad plaintext in
  Alcotest.(check int) "ciphertext length" (String.length plaintext + Aead.tag_size)
    (String.length sealed);
  (match Aead.decrypt ~key ~nonce ~aad sealed with
  | Some p -> Alcotest.(check string) "round trip" plaintext p
  | None -> Alcotest.fail "decrypt failed");
  (match Aead.decrypt ~key ~nonce ~aad:"" sealed with
  | Some _ -> Alcotest.fail "wrong aad accepted"
  | None -> ());
  (match Aead.decrypt ~key:(String.make 32 'x') ~nonce ~aad sealed with
  | Some _ -> Alcotest.fail "wrong key accepted"
  | None -> ());
  match Aead.decrypt ~key ~nonce:(String.make 12 '\x43') ~aad sealed with
  | Some _ -> Alcotest.fail "wrong nonce accepted"
  | None -> ()

let test_aead_tamper () =
  let sealed = Bytes.of_string (Aead.encrypt ~key ~nonce "hello mesh network") in
  for i = 0 to Bytes.length sealed - 1 do
    let original = Bytes.get sealed i in
    Bytes.set sealed i (Char.chr (Char.code original lxor 1));
    (match Aead.decrypt ~key ~nonce (Bytes.to_string sealed) with
    | Some _ -> Alcotest.failf "tampered byte %d accepted" i
    | None -> ());
    Bytes.set sealed i original
  done;
  (* truncation *)
  let s = Bytes.to_string sealed in
  (match Aead.decrypt ~key ~nonce (String.sub s 0 (String.length s - 1)) with
  | Some _ -> Alcotest.fail "truncated message accepted"
  | None -> ());
  match Aead.decrypt ~key ~nonce "" with
  | Some _ -> Alcotest.fail "empty message accepted"
  | None -> ()

let test_aead_empty_plaintext () =
  let sealed = Aead.encrypt ~key ~nonce "" in
  match Aead.decrypt ~key ~nonce sealed with
  | Some "" -> ()
  | Some _ -> Alcotest.fail "nonempty decryption"
  | None -> Alcotest.fail "decrypt failed"

let qcheck_tests =
  [
    QCheck.Test.make ~name:"aead round trip" ~count:100
      (QCheck.pair QCheck.string QCheck.string)
      (fun (plaintext, aad) ->
        match Aead.decrypt ~key ~nonce ~aad (Aead.encrypt ~key ~nonce ~aad plaintext) with
        | Some p -> p = plaintext
        | None -> false);
    QCheck.Test.make ~name:"chacha xor involutive" ~count:100 QCheck.string
      (fun data -> Chacha20.xor ~key ~nonce (Chacha20.xor ~key ~nonce data) = data);
    QCheck.Test.make ~name:"distinct nonces give distinct keystreams" ~count:50
      QCheck.small_nat
      (fun i ->
        let n1 = String.make 12 (Char.chr (i mod 256)) in
        let n2 = String.make 12 (Char.chr ((i + 1) mod 256)) in
        Chacha20.block ~key ~nonce:n1 ~counter:0
        <> Chacha20.block ~key ~nonce:n2 ~counter:0);
  ]

let suite =
  [
    ( "cipher",
      [
        Alcotest.test_case "chacha20 block vector" `Quick test_chacha20_block;
        Alcotest.test_case "chacha20 encrypt vector" `Quick test_chacha20_encrypt;
        Alcotest.test_case "chacha20 input validation" `Quick test_chacha20_errors;
        Alcotest.test_case "aead round trip" `Quick test_aead_round_trip;
        Alcotest.test_case "aead tamper rejection" `Quick test_aead_tamper;
        Alcotest.test_case "aead empty plaintext" `Quick test_aead_empty_plaintext;
      ] );
    ("cipher-properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]

let () = Alcotest.run "peace-cipher" suite
