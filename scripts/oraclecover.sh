#!/bin/sh
# Lists the model functions that no byte oracle reaches. Runs the root
# package's oracle tests (TestExecMode*, TestProbe*: the golden digests
# and the cross-mode comparisons) with coverage over the model packages
# and prints each function none of whose statements ran, as pkg.Func or
# pkg.(*T).Method, one per line and sorted. No line numbers, so that an
# edit elsewhere in a file does not move the list. A function with an
# empty body has nothing to run and is left out.
#
#	sh scripts/oraclecover.sh                 # print the list
#	sh scripts/oraclecover.sh -check FILE     # fail if a function is not in FILE
set -e
pkgs=
for p in sim disk bus netsim mpi diskos cluster smp tasks cpu fault probe stats osmodel; do
	pkgs="$pkgs${pkgs:+,}howsim/internal/$p"
done
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go test -count=1 -run '^(TestExecMode|TestProbe)' -coverpkg="$pkgs" \
	-coverprofile="$tmp/cover.out" . >/dev/null
# "howsim/internal/sim/kernel.go:561:  Spawn  0.0%": read the declaration
# line for the receiver, if any.
go tool cover -func="$tmp/cover.out" | awk '$NF == "0.0%" { print $1, $2 }' |
	while read -r pos fn; do
		file=${pos%%:*}
		line=${pos#*:}
		line=${line%:}
		pkg=${file%/*}
		pkg=${pkg##*/}
		decl=$(sed -n "${line}p" "${file#howsim/}")
		case $decl in
		*'{}') continue ;; # an empty body has no statement to run
		esac
		recv=$(printf "%s\n" "$decl" |
			sed -n 's/^func (\([A-Za-z_][A-Za-z0-9_]* \)\{0,1\}\([^)]*\)).*/\2/p')
		if [ -n "$recv" ]; then
			echo "$pkg.($recv).$fn"
		else
			echo "$pkg.$fn"
		fi
	done | LC_ALL=C sort -u >"$tmp/list"
if [ "$1" = -check ]; then
	new=$(LC_ALL=C comm -13 "$2" "$tmp/list")
	if [ -n "$new" ]; then
		echo "no byte oracle reaches these functions any more; cover them with a golden row:"
		echo "$new"
		exit 1
	fi
	exit 0
fi
cat "$tmp/list"
