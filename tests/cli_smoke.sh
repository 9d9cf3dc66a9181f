set -e
# Console-script smoke test: runs irislogic end to end and checks its
# files, stdout, refusals and exit codes. Run it in an empty directory with
# irislogic and python on PATH:  cd "$(mktemp -d)" && bash .../cli_smoke.sh
# New command-line cases go here or into tests/test_cli.py.
trap 'echo "cli_smoke.sh: line $LINENO failed" >&2' ERR

# refused PREFIX CMD...: CMD exits 2 and prints one stderr line, which
# starts with PREFIX
refused() {
    local prefix=$1 code=0
    shift
    "$@" 2> refused.err || code=$?
    test "$code" -eq 2 && test "$(wc -l < refused.err)" -eq 1 \
        && grep -q "^$prefix" refused.err \
        || { echo "exit $code, stderr:" >&2; cat refused.err >&2; return 1; }
}

# gallery NAME BIT_LENGTH ENTRIES: writes NAME.json with the bands of
# bands.json and ENTRIES (a Python list) as its templates, and a copy of it
# as NAME.before
gallery() {
    python -c "import json; json.dump({'bands': json.load(open('bands.json')), 'bit_length': $2, 'templates': $3}, open('$1.json', 'w'))"
    cp "$1.json" "$1.before"
}

irislogic algebra verify
irislogic simulate --identities 20 --samples-per 5 --bits 1024 \
    --flip 0.15 --seed 3 --out scores.csv
irislogic calibrate --scores scores.csv --target 1e-4 \
    --out bands.json --curves-out curves.csv
test "$(wc -l < curves.csv)" -eq 10002
test "$(head -n 1 curves.csv)" = "t,far,frr,pofa,pofr"
refused "error=invalid_input " irislogic calibrate --scores scores.csv \
    --target 1e-4 --out same.json --curves-out same.json
test ! -e same.json
irislogic decide --bands bands.json --claim positive --score 0.45 \
    > decide.out
grep -qxF "claim=positive identity=X score=0.45 modal=D response=rejected output_octal=2 meaning=PR'&NA'" decide.out
irislogic curves --scores scores.csv --out curves2.csv
cmp curves.csv curves2.csv
refused "error=invalid_input detail=curves.csv: not a bands document" \
    irislogic decide --bands curves.csv --claim positive --score 0.5
printf '{"n": "0.9", "p": "0.1", "target_rate": "1e-4"}\n' \
    > unordered.json
refused "error=invalid_input detail=unordered.json: " \
    irislogic decide --bands unordered.json --claim positive --score 0.5
refused "error=usage " \
    irislogic decide --bands bands.json --claim positive --score abc
hex=$(python -c "print('a5' * 128)")
irislogic enroll --gallery gallery.json --bands bands.json \
    --identity alice --template-id alice_1 --bits-hex "$hex" > enroll.out
grep -qx "enrolled=alice_1 gallery_size=1" enroll.out
refused "error=duplicate_template_id " irislogic enroll \
    --gallery gallery.json --identity alice --template-id alice_1 \
    --bits-hex "$hex"
gallery listid 1024 "[{'bits': 'a5' * 128, 'identity': ['alice'], 'template_id': 'alice_1'}]"
refused "error=invalid_input " irislogic enroll --gallery listid.json \
    --identity bob --template-id bob_1 --bits-hex "$hex"
cmp listid.json listid.before
python -c "import irislogic, sys; assert 'scipy.stats' not in sys.modules"
python -c "import irislogic.cli, sys; assert 'scipy' not in sys.modules"
refused "error=usage " irislogic curves --scores scores.csv --out grid.csv \
    --grid-step 0.01
test ! -e grid.csv
refused "error=usage " irislogic decide --bands bands.json \
    --claim positive --score 0.5 --identity "$(printf 'a\nb')"
gallery badhex 1024 "[{'bits': 'a5' * 128, 'identity': 'alice', 'template_id': 'alice_1'}, {'bits': 'zz' + 'a5' * 127, 'identity': 'bob', 'template_id': 'bob_1'}]"
refused "error=invalid_input detail=badhex.json: non-hexadecimal number found in fromhex() arg at position 0" \
    irislogic enroll --gallery badhex.json --identity carol \
    --template-id carol_1 --bits-hex "$hex"
cmp badhex.json badhex.before
gallery pad 12 "[{'bits': 'b2d0', 'identity': 'alice', 'template_id': 'alice_1'}, {'bits': 'b2df', 'identity': 'bob', 'template_id': 'bob_1'}]"
refused "error=invalid_input detail=pad.json: hex payload does not match the bit length" \
    irislogic enroll --gallery pad.json --identity carol \
    --template-id carol_1 --bits-hex b2d0
cmp pad.json pad.before
gallery order 1024 "[{'bits': 'a5' * 128, 'identity': ['alice'], 'template_id': 'alice_1'}, {'bits': 'zz' + 'a5' * 127, 'identity': 'bob', 'template_id': 'bob_1'}]"
refused "error=invalid_input detail=order.json: not a gallery document (identity" \
    irislogic enroll --gallery order.json --identity carol \
    --template-id carol_1 --bits-hex "$hex"
cmp order.json order.before
gallery empty12 12 "[]"
refused "error=invalid_input detail=empty12.json: not a gallery document (bit_length 12 is given for no templates)" \
    irislogic enroll --gallery empty12.json --identity alice \
    --template-id alice_1 --bits-hex b2d0
cmp empty12.json empty12.before
