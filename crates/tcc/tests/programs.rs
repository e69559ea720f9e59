//! End-to-end tests: C programs compiled at runtime and executed
//! natively.

use tcc::{CallError, CcError, Program};

fn compile(src: &str) -> Program {
    match Program::compile(src) {
        Ok(p) => p,
        Err(e) => panic!("compile failed: {e}\n{src}"),
    }
}

#[test]
fn plus1() {
    let p = compile("int plus1(int x) { return x + 1; }");
    assert_eq!(p.call_int("plus1", &[41]).unwrap(), 42);
    assert_eq!(p.call_int("plus1", &[-1]).unwrap(), 0);
}

#[test]
fn arithmetic_and_precedence() {
    let p = compile("int f(int a, int b, int c) { return a + b * c - (a - b) / 2 + a % c; }");
    let f = |a: i64, b: i64, c: i64| a + b * c - (a - b) / 2 + a % c;
    for (a, b, c) in [(1, 2, 3), (10, -4, 7), (100, 3, 9), (-50, -60, 11)] {
        assert_eq!(p.call_int("f", &[a, b, c]).unwrap(), f(a, b, c));
    }
}

#[test]
fn bitwise_and_shifts() {
    let p = compile("int f(int a, int b) { return (a & b) | (a ^ 255) | (a << 2) | (b >> 1); }");
    let f = |a: i32, b: i32| (a & b) | (a ^ 255) | (a << 2) | (b >> 1);
    for (a, b) in [(0, 0), (0x55, 0xaa), (1024, 7), (-8, 3)] {
        assert_eq!(
            p.call_int("f", &[i64::from(a), i64::from(b)]).unwrap(),
            i64::from(f(a, b))
        );
    }
}

#[test]
fn recursion_fib_and_fact() {
    let p = compile(
        "
        int fib(int n) {
            if (n < 2) return n;
            return fib(n - 1) + fib(n - 2);
        }
        long fact(long n) {
            if (n <= 1) return 1;
            return n * fact(n - 1);
        }
        ",
    );
    assert_eq!(p.call_int("fib", &[10]).unwrap(), 55);
    assert_eq!(p.call_int("fib", &[20]).unwrap(), 6765);
    assert_eq!(p.call_int("fact", &[20]).unwrap(), 2432902008176640000);
}

#[test]
fn mutual_recursion_forward_reference() {
    let p = compile(
        "
        int is_even(int n) {
            if (n == 0) return 1;
            return is_odd(n - 1);
        }
        int is_odd(int n) {
            if (n == 0) return 0;
            return is_even(n - 1);
        }
        ",
    );
    assert_eq!(p.call_int("is_even", &[10]).unwrap(), 1);
    assert_eq!(p.call_int("is_odd", &[7]).unwrap(), 1);
    assert_eq!(p.call_int("is_even", &[7]).unwrap(), 0);
}

#[test]
fn loops_and_compound_assignment() {
    let p = compile(
        "
        int sum_to(int n) {
            int s = 0;
            for (int i = 1; i <= n; i += 1) s += i;
            return s;
        }
        int count_down(int n) {
            int steps = 0;
            while (n > 0) { n -= 3; steps++; }
            return steps;
        }
        int do_once(int x) {
            do { x *= 2; } while (x < 0);
            return x;
        }
        ",
    );
    assert_eq!(p.call_int("sum_to", &[100]).unwrap(), 5050);
    assert_eq!(p.call_int("count_down", &[10]).unwrap(), 4);
    assert_eq!(p.call_int("do_once", &[21]).unwrap(), 42);
    assert_eq!(p.call_int("do_once", &[0]).unwrap(), 0, "body runs once");
}

#[test]
fn break_continue_nested() {
    let p = compile(
        "
        int f(int n) {
            int hits = 0;
            for (int i = 0; i < n; i++) {
                if (i % 3 == 0) continue;
                if (i > 20) break;
                hits++;
            }
            return hits;
        }
        ",
    );
    // i in 1..=20 not divisible by 3: 20 - 6 = 14.
    assert_eq!(p.call_int("f", &[100]).unwrap(), 14);
    assert_eq!(p.call_int("f", &[5]).unwrap(), 3);
}

#[test]
fn pointers_and_arrays() {
    let p = compile(
        "
        int sum(int *a, int n) {
            int s = 0;
            for (int i = 0; i < n; i++) s += a[i];
            return s;
        }
        void fill(int *a, int n, int v) {
            for (int i = 0; i < n; i++) a[i] = v + i;
        }
        int deref(int *p) { return *p; }
        void set(int *p, int v) { *p = v; }
        ",
    );
    let data = [1i32, 2, 3, 4, 5];
    assert_eq!(p.call_int("sum", &[data.as_ptr() as i64, 5]).unwrap(), 15);
    let mut out = [0i32; 8];
    p.call_int("fill", &[out.as_mut_ptr() as i64, 8, 100])
        .unwrap();
    assert_eq!(out, [100, 101, 102, 103, 104, 105, 106, 107]);
    let x = 7i32;
    assert_eq!(p.call_int("deref", &[&x as *const i32 as i64]).unwrap(), 7);
    let mut y = 0i32;
    p.call_int("set", &[&mut y as *mut i32 as i64, 99]).unwrap();
    assert_eq!(y, 99);
}

#[test]
fn char_pointers_and_string_ops() {
    let p = compile(
        "
        int strlen_(char *s) {
            int n = 0;
            while (s[n] != '\\0') n++;
            return n;
        }
        int count_char(char *s, int n, char c) {
            int hits = 0;
            for (int i = 0; i < n; i++) if (s[i] == c) hits++;
            return hits;
        }
        ",
    );
    let s = b"hello world\0";
    assert_eq!(p.call_int("strlen_", &[s.as_ptr() as i64]).unwrap(), 11);
    assert_eq!(
        p.call_int("count_char", &[s.as_ptr() as i64, 11, i64::from(b'l')])
            .unwrap(),
        3
    );
}

#[test]
fn address_of_locals() {
    let p = compile(
        "
        void bump(int *p) { *p = *p + 1; }
        int f(int x) {
            int v = x;
            bump(&v);
            bump(&v);
            return v;
        }
        ",
    );
    assert_eq!(p.call_int("f", &[40]).unwrap(), 42);
}

#[test]
fn doubles_and_conversions() {
    let p = compile(
        "
        double poly(double x) { return 2.0 * x * x - 3.0 * x + 0.5; }
        double mix(double a, double b) { return a / b + 1.5; }
        int trunc_(double x) { return (int) x; }
        double widen(int x) { return (double) x / 4.0; }
        int avg(int a, int b) { return (int) (((double) a + (double) b) / 2.0); }
        ",
    );
    assert_eq!(p.call_f64("poly", &[2.0]).unwrap(), 2.5);
    assert_eq!(p.call_f64("mix", &[3.0, 2.0]).unwrap(), 3.0);
    assert_eq!(
        p.call_int("trunc_", &[]).unwrap_err(),
        CallError::Arity {
            expected: 1,
            got: 0
        }
    );
    // SAFETY: the compiled program defines `trunc_` with exactly this
    // f64 -> i32 signature.
    let trunc_: extern "C" fn(f64) -> i32 = unsafe { p.as_fn("trunc_") };
    assert_eq!(trunc_(3.9), 3);
    assert_eq!(trunc_(-3.9), -3);
    // SAFETY: the compiled program defines `widen` with exactly this
    // i32 -> f64 signature.
    let widen: extern "C" fn(i32) -> f64 = unsafe { p.as_fn("widen") };
    assert_eq!(widen(10), 2.5);
    assert_eq!(p.call_int("avg", &[3, 4]).unwrap(), 3);
}

#[test]
fn logical_operators_short_circuit() {
    let p = compile(
        "
        int bomb(int *counter) { *counter = *counter + 1; return 1; }
        int and_test(int x, int *counter) { return x && bomb(counter); }
        int or_test(int x, int *counter) { return x || bomb(counter); }
        int chain(int a, int b, int c) { return a && b || c; }
        ",
    );
    let mut counter = 0i32;
    let cp = &mut counter as *mut i32 as i64;
    assert_eq!(p.call_int("and_test", &[0, cp]).unwrap(), 0);
    assert_eq!(counter, 0, "&& short-circuits");
    assert_eq!(p.call_int("and_test", &[5, cp]).unwrap(), 1);
    assert_eq!(counter, 1);
    assert_eq!(p.call_int("or_test", &[5, cp]).unwrap(), 1);
    assert_eq!(counter, 1, "|| short-circuits");
    assert_eq!(p.call_int("or_test", &[0, cp]).unwrap(), 1);
    assert_eq!(counter, 2);
    assert_eq!(p.call_int("chain", &[1, 1, 0]).unwrap(), 1);
    assert_eq!(p.call_int("chain", &[1, 0, 0]).unwrap(), 0);
    assert_eq!(p.call_int("chain", &[0, 0, 3]).unwrap(), 1);
}

#[test]
fn unary_operators() {
    let p = compile(
        "
        int f(int x) { return -x + !x + ~x; }
        int g(int x) { return !!x; }
        ",
    );
    let f = |x: i64| -x + i64::from(x == 0) + !x;
    for x in [-5i64, 0, 1, 42] {
        assert_eq!(p.call_int("f", &[x]).unwrap(), f(x));
    }
    assert_eq!(p.call_int("g", &[17]).unwrap(), 1);
    assert_eq!(p.call_int("g", &[0]).unwrap(), 0);
}

#[test]
fn increments_pre_and_post() {
    let p = compile(
        "
        int f(int x) {
            int a = x++;
            int b = ++x;
            int c = x--;
            int d = --x;
            return a * 1000000 + b * 10000 + c * 100 + d;
        }
        ",
    );
    // x=5: a=5 (x=6), b=7 (x=7), c=7 (x=6), d=5 (x=5).
    assert_eq!(
        p.call_int("f", &[5]).unwrap(),
        5 * 1000000 + 7 * 10000 + 7 * 100 + 5
    );
}

#[test]
fn calls_inside_expressions_spill_correctly() {
    let p = compile(
        "
        int id(int x) { return x; }
        int f(int a, int b) { return a * 10 + id(b); }
        int g(int a) { return id(a) + id(a + 1) * id(a + 2); }
        int h(int *arr) { return arr[id(2)] + 5; }
        ",
    );
    assert_eq!(p.call_int("f", &[3, 4]).unwrap(), 34);
    assert_eq!(p.call_int("g", &[5]).unwrap(), 5 + 6 * 7);
    let data = [10i32, 20, 30];
    assert_eq!(p.call_int("h", &[data.as_ptr() as i64]).unwrap(), 35);
}

#[test]
fn six_argument_calls() {
    let p = compile(
        "
        int six(int a, int b, int c, int d, int e, int f) {
            return a + 2*b + 3*c + 4*d + 5*e + 6*f;
        }
        int relay(int a, int b, int c, int d, int e, int f) {
            return six(f, e, d, c, b, a);
        }
        ",
    );
    assert_eq!(
        p.call_int("six", &[1, 2, 3, 4, 5, 6]).unwrap(),
        1 + 4 + 9 + 16 + 25 + 36
    );
    assert_eq!(
        p.call_int("relay", &[1, 2, 3, 4, 5, 6]).unwrap(),
        6 + 10 + 12 + 12 + 10 + 6
    );
}

#[test]
fn long_arithmetic() {
    let p = compile(
        "
        long mul(long a, long b) { return a * b; }
        long big(long n) {
            long s = 0;
            for (long i = 0; i < n; i++) s += i * i;
            return s;
        }
        ",
    );
    assert_eq!(p.call_int("mul", &[1 << 40, 3]).unwrap(), 3 << 40);
    assert_eq!(p.call_int("big", &[1000]).unwrap(), 332833500);
}

#[test]
fn gcd_and_primes() {
    let p = compile(
        "
        int gcd(int a, int b) {
            while (b != 0) {
                int t = a % b;
                a = b;
                b = t;
            }
            return a;
        }
        int is_prime(int n) {
            if (n < 2) return 0;
            for (int d = 2; d * d <= n; d++)
                if (n % d == 0) return 0;
            return 1;
        }
        int count_primes(int limit) {
            int k = 0;
            for (int i = 2; i < limit; i++) k += is_prime(i);
            return k;
        }
        ",
    );
    assert_eq!(p.call_int("gcd", &[48, 36]).unwrap(), 12);
    assert_eq!(p.call_int("gcd", &[17, 5]).unwrap(), 1);
    assert_eq!(p.call_int("count_primes", &[100]).unwrap(), 25);
}

#[test]
fn scopes_shadowing() {
    let p = compile(
        "
        int f(int x) {
            int y = 1;
            {
                int y = 2;
                x += y;
            }
            return x + y;
        }
        ",
    );
    assert_eq!(p.call_int("f", &[10]).unwrap(), 13);
}

#[test]
fn newton_sqrt_in_c() {
    let p = compile(
        "
        double my_sqrt(double v) {
            double x = v / 2.0 + 0.5;
            for (int i = 0; i < 30; i++) x = (x + v / x) / 2.0;
            return x;
        }
        ",
    );
    let r = p.call_f64("my_sqrt", &[2.0]).unwrap();
    assert!((r - 2.0f64.sqrt()).abs() < 1e-12, "{r}");
}

#[test]
fn semantic_errors_are_reported() {
    let cases = [
        ("int f() { return x; }", "not declared"),
        ("int f() { g(); return 0; }", "undeclared function"),
        ("int f(int a) { int a; return a; }", "redeclared"),
        ("int f() { break; }", "outside a loop"),
        ("void f() { return 3; }", "void function"),
        ("int f() { return *3; }", "non-pointer"),
        ("int f(int x) { return 1 = x; }", "not an lvalue"),
        ("int f() { return h(1); }", "undeclared"),
        (
            "int g(int a, int b) { return a; } int f() { return g(1); }",
            "takes 2 arguments",
        ),
        ("int f() { return 1.5 % 2; }", "integer operands"),
    ];
    for (src, needle) in cases {
        match Program::compile(src) {
            Err(CcError::Sem { msg, .. }) => {
                assert!(msg.contains(needle), "{src}: {msg:?} missing {needle:?}")
            }
            other => panic!("{src}: expected semantic error, got {other:?}"),
        }
    }
}

#[test]
fn integer_only_operators_on_doubles_keep_their_messages() {
    for (src, msg) in [
        (
            "double f(double a) { return a % 2.0; }",
            "`%` needs integer operands",
        ),
        ("double f(double a) { return ~a; }", "~ needs an integer"),
    ] {
        match Program::compile(src) {
            Err(CcError::Sem { func, msg: got }) => {
                assert_eq!((func.as_str(), got.as_str()), ("f", msg), "{src}");
            }
            other => panic!("{src}: expected a semantic error, got {other:?}"),
        }
    }
}

#[test]
fn parse_errors_are_reported() {
    assert!(matches!(
        Program::compile("int f( {"),
        Err(CcError::Parse(_))
    ));
}

#[test]
fn call_helper_type_checks() {
    let p = compile("double d(double x) { return x; } int i(int x) { return x; }");
    assert!(matches!(
        p.call_int("d", &[1]),
        Err(CallError::Signature(_))
    ));
    assert!(matches!(
        p.call_f64("i", &[1.0]),
        Err(CallError::Signature(_))
    ));
    assert!(matches!(
        p.call_int("nope", &[]),
        Err(CallError::Undefined(_))
    ));
}

#[test]
fn casts_between_int_widths_and_pointers() {
    let p = compile(
        "
        long widen(int x) { return (long) x; }
        int narrow(long x) { return (int) x; }
        long ptr2long(int *p) { return (long) p; }
        ",
    );
    assert_eq!(p.call_int("widen", &[-5]).unwrap(), -5);
    assert_eq!(p.call_int("narrow", &[0x1_0000_0002]).unwrap(), 2);
    let x = 0i32;
    let addr = &x as *const i32 as i64;
    assert_eq!(p.call_int("ptr2long", &[addr]).unwrap(), addr);
}

#[test]
fn pointer_difference_and_comparison() {
    let p = compile(
        "
        long diff(int *a, int *b) { return b - a; }
        int before(int *a, int *b) { return a < b; }
        ",
    );
    let arr = [0i32; 10];
    let a = arr.as_ptr() as i64;
    // SAFETY: index 7 is in bounds of the 10-element array.
    let b = unsafe { arr.as_ptr().add(7) } as i64;
    assert_eq!(p.call_int("diff", &[a, b]).unwrap(), 7);
    assert_eq!(p.call_int("before", &[a, b]).unwrap(), 1);
    assert_eq!(p.call_int("before", &[b, a]).unwrap(), 0);
}

#[test]
fn bubble_sort_program() {
    let p = compile(
        "
        void sort(int *a, int n) {
            for (int i = 0; i < n - 1; i++)
                for (int j = 0; j < n - 1 - i; j++)
                    if (a[j] > a[j + 1]) {
                        int t = a[j];
                        a[j] = a[j + 1];
                        a[j + 1] = t;
                    }
        }
        ",
    );
    let mut data = [5i32, 3, 8, 1, 9, 2, 7, 4, 6, 0];
    p.call_int("sort", &[data.as_mut_ptr() as i64, 10]).unwrap();
    assert_eq!(data, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
}

#[test]
fn ackermann_stress_calls() {
    let p = compile(
        "
        int ack(int m, int n) {
            if (m == 0) return n + 1;
            if (n == 0) return ack(m - 1, 1);
            return ack(m - 1, ack(m, n - 1));
        }
        ",
    );
    assert_eq!(p.call_int("ack", &[2, 3]).unwrap(), 9);
    assert_eq!(p.call_int("ack", &[3, 3]).unwrap(), 61);
}

#[test]
fn local_arrays() {
    let p = compile(
        "
        int sieve(int limit) {
            int flag[100];
            for (int i = 0; i < limit; i++) flag[i] = 1;
            int count = 0;
            for (int i = 2; i < limit; i++) {
                if (flag[i]) {
                    count++;
                    for (int j = i + i; j < limit; j += i) flag[j] = 0;
                }
            }
            return count;
        }
        int sum_squares(int n) {
            int a[32];
            for (int i = 0; i < n; i++) a[i] = i * i;
            int s = 0;
            for (int i = 0; i < n; i++) s += a[i];
            return s;
        }
        long via_pointer(int n) {
            long vals[8];
            long *p = vals;
            for (int i = 0; i < n; i++) *(p + i) = i * 10;
            long s = 0;
            for (int i = 0; i < n; i++) s += vals[i];
            return s;
        }
        int bytes(int n) {
            char buf[16];
            for (int i = 0; i < n; i++) buf[i] = 'a' + i;
            int s = 0;
            for (int i = 0; i < n; i++) s += buf[i];
            return s;
        }
        ",
    );
    assert_eq!(p.call_int("sieve", &[100]).unwrap(), 25);
    assert_eq!(p.call_int("sum_squares", &[10]).unwrap(), 285);
    assert_eq!(p.call_int("via_pointer", &[8]).unwrap(), 280);
    assert_eq!(
        p.call_int("bytes", &[4]).unwrap(),
        i64::from(b'a') + i64::from(b'b') + i64::from(b'c') + i64::from(b'd')
    );
}

#[test]
fn array_passed_to_function() {
    let p = compile(
        "
        int total(int *a, int n) {
            int s = 0;
            for (int i = 0; i < n; i++) s += a[i];
            return s;
        }
        int driver(void) {
            int xs[5];
            for (int i = 0; i < 5; i++) xs[i] = i + 1;
            return total(xs, 5);
        }
        ",
    );
    assert_eq!(p.call_int("driver", &[]).unwrap(), 15);
}

#[test]
fn array_misuse_is_rejected() {
    match Program::compile("int f() { int a[4]; a = 0; return 0; }") {
        Err(CcError::Sem { msg, .. }) => assert!(msg.contains("not assignable"), "{msg}"),
        other => panic!("expected semantic error, got {other:?}"),
    }
    assert!(Program::compile("int f() { int a[0]; return 0; }").is_err());
    match Program::compile("int f() { int a[4] = 3; return a[0]; }") {
        Err(CcError::Sem { msg, .. }) => assert!(msg.contains("initializers"), "{msg}"),
        other => panic!("expected semantic error, got {other:?}"),
    }
}

/// A unit's bytes, from the entry of its first function `first`.
fn unit_bytes(p: &Program, first: &str) -> Vec<u8> {
    // SAFETY: `p` keeps its unit mapped, `code_len` bytes from the entry
    // of its first function.
    unsafe { std::slice::from_raw_parts(p.addr(first).unwrap() as *const u8, p.code_len) }.to_vec()
}

/// A unit names no host address: a call reads its callee's distance from
/// the caller's pool, so the same source compiles to the same bytes
/// however many units are alive, and each runs where it is mapped.
#[test]
fn a_unit_with_calls_is_the_same_bytes_every_time() {
    let src = r"
        int twice(int x) { return helper(x) + helper(x); }
        int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
        int helper(int x) { return x * 3 + fib(x); }
    ";
    let (first, second) = (compile(src), compile(src));
    assert_ne!(first.addr("twice"), second.addr("twice"));
    assert_eq!(unit_bytes(&first, "twice"), unit_bytes(&second, "twice"));
    for p in [&first, &second] {
        assert_eq!(p.call_int("twice", &[10]).unwrap(), 2 * (30 + 55));
        assert_eq!(p.call_int("fib", &[15]).unwrap(), 610);
    }
}

/// A unit of many functions needs several pages: on a fresh thread the
/// lowering scratch starts at one page and grows until the unit fits,
/// and a second compile on the grown scratch writes the same bytes.
#[test]
fn a_unit_past_one_page_compiles_on_a_fresh_thread() {
    std::thread::spawn(|| {
        let src: String = (0..64)
            .map(|i| {
                format!(
                    "int f{i}(int a, int b) {{ int s = 0; \
                     while (a < b) {{ s = s + a * {i} - (b >> 1); a = a + 1; }} \
                     return s ^ {i}; }}\n"
                )
            })
            .collect();
        let (first, second) = (compile(&src), compile(&src));
        assert!(first.code_len > 2 * 4096, "{} bytes", first.code_len);
        assert_eq!(unit_bytes(&first, "f0"), unit_bytes(&second, "f0"));
        for i in 0..64i64 {
            let f = |a: i64, b: i64| {
                let (mut a, mut s) = (a, 0i64);
                while a < b {
                    s = s + a * i - (b >> 1);
                    a += 1;
                }
                s ^ i
            };
            let name = format!("f{i}");
            assert_eq!(
                second.call_int(&name, &[3, 11]).unwrap(),
                f(3, 11),
                "{name}"
            );
        }
    })
    .join()
    .expect("compiles on a fresh thread");
}
