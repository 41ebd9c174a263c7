//! Authentication against the web database (§4.4 step 1, §5.1: "user
//! accounts and their label privileges are stored in the web database").
//!
//! Password verification uses a deliberately expensive iterated hash, and
//! HTTP basic authentication presents the password on every request. The
//! paper's frontend re-verified it every time, which is why auth dominates
//! its latency breakdown (87 ms of 180 ms, Figure 5). Here verification has
//! two paths through one function, [`UserStore::verify_row`]:
//!
//! * **cold** — the first time a credential is presented (and every time a
//!   wrong one is), the full KDF runs, exactly as in the paper;
//! * **warm** — a credential that already passed the KDF is recognised by
//!   its tag in a small process-local cache and the KDF is skipped.
//!
//! The tag is HMAC-SHA-256, under a per-process random key, of the stored
//! username, the row's stored `password_hash` and the presented password.
//! Because it binds the *stored* hash, a password change kills every old
//! tag, so nothing is ever invalidated. Privileges are always parsed from
//! the freshly fetched row, never from the cache. The iteration count is
//! configurable so the benchmark harness can calibrate the paper's profile.

use std::fmt;
use std::fs::File;
use std::io::Read;
use std::sync::{Arc, PoisonError, RwLock};

use safeweb_digest::{ct_eq, HmacSha256, DIGEST_LEN};
use safeweb_labels::{Privilege, PrivilegeSet};
use safeweb_obs::Counter;
use safeweb_relstore::{CellValue, ColumnDef, ColumnType, Database, Row, Schema};

/// Authentication configuration.
#[derive(Debug, Clone, Copy)]
pub struct AuthConfig {
    /// Iterations of the password hash. Higher = slower = more resistant
    /// to brute force. The default is calibrated to take on the order of
    /// tens of milliseconds, mirroring the paper's profile.
    pub hash_iterations: u32,
}

impl Default for AuthConfig {
    fn default() -> AuthConfig {
        AuthConfig {
            hash_iterations: 2_000_000,
        }
    }
}

/// The user/privilege store backed by the web database.
///
/// Clones share one verified-credential cache, so the portal frontend,
/// every frontend shard and the ops gate warm each other.
#[derive(Debug, Clone)]
pub struct UserStore {
    db: Database,
    config: AuthConfig,
    verified: Arc<VerifiedCache>,
}

/// An authenticated user: name plus the privileges fetched from the web
/// database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthenticatedUser {
    /// The username.
    pub username: String,
    /// The user's label privileges.
    pub privileges: PrivilegeSet,
    /// Whether the user is an application administrator (used by the MDT
    /// portal's privilege-assignment pages, which are part of the audited
    /// codebase).
    pub is_admin: bool,
}

impl UserStore {
    /// Creates the user tables in `db` (idempotent) and returns the store.
    pub fn new(db: Database, config: AuthConfig) -> UserStore {
        // Ignore TableExists: the schema is fixed.
        let _ = db.create_table(
            "users",
            Schema::new(
                vec![
                    ColumnDef::new("username", ColumnType::Text),
                    ColumnDef::new("password_hash", ColumnType::Text),
                    ColumnDef::new("privileges", ColumnType::Text),
                    ColumnDef::new("is_admin", ColumnType::Bool),
                ],
                "username",
            ),
        );
        UserStore {
            db,
            config,
            verified: Arc::new(VerifiedCache::new()),
        }
    }

    /// The underlying web database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Creates a user with the given password and privileges.
    ///
    /// # Errors
    ///
    /// Returns an error string for duplicate usernames, usernames holding
    /// a NUL byte (NUL separates the fields of a credential tag), or
    /// storage failures.
    pub fn create_user(
        &self,
        username: &str,
        password: &str,
        privileges: &PrivilegeSet,
        is_admin: bool,
    ) -> Result<(), String> {
        if username.contains('\0') {
            return Err("usernames may not contain NUL".to_string());
        }
        let hash = hash_password(username, password, self.config.hash_iterations);
        let wire = privileges_to_wire(privileges);
        self.db
            .insert(
                "users",
                vec![username.into(), hash.into(), wire.into(), is_admin.into()],
            )
            .map_err(|e| e.to_string())
    }

    /// Grants an additional privilege to an existing user (the audited
    /// privilege-assignment path of the MDT portal, §5.2).
    ///
    /// # Errors
    ///
    /// Returns an error string if the user does not exist.
    pub fn grant_privilege(&self, username: &str, privilege: Privilege) -> Result<(), String> {
        let row = self
            .db
            .get("users", &CellValue::from(username))
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("no such user {username:?}"))?;
        let mut privs = wire_to_privileges(row.text("privileges").unwrap_or(""));
        privs.grant(privilege);
        self.db
            .update(
                "users",
                vec![
                    username.into(),
                    row.text("password_hash").unwrap_or("").into(),
                    privileges_to_wire(&privs).into(),
                    row.bool("is_admin").unwrap_or(false).into(),
                ],
            )
            .map_err(|e| e.to_string())
    }

    /// Looks the user up with `lookup`, then verifies the password with
    /// [`UserStore::verify_row`]. Returns `None` on unknown user or wrong
    /// password.
    ///
    /// The `lookup` closure gives the §5.2 "errors in access checks"
    /// experiment a hook to inject a case-insensitive username bug; the
    /// production path is [`UserStore::authenticate`].
    pub fn authenticate_with_lookup(
        &self,
        username: &str,
        password: &str,
        lookup: impl Fn(&Database, &str) -> Option<Row>,
    ) -> Option<AuthenticatedUser> {
        self.verify_row(&lookup(&self.db, username)?, password)
    }

    /// Verifies credentials with the standard exact-match lookup.
    pub fn authenticate(&self, username: &str, password: &str) -> Option<AuthenticatedUser> {
        self.authenticate_with_lookup(username, password, |db, name| {
            db.get("users", &CellValue::from(name)).ok().flatten()
        })
    }

    /// Verifies a password against an already-fetched `users` row (the
    /// frontend middleware fetches and verifies in separate, separately
    /// timed phases — privilege fetching vs. authentication in Figure 5).
    ///
    /// A credential whose tag is cached skips the KDF; any other runs the
    /// full [`hash_password`], and only a match inserts its tag. The
    /// privileges always come from `row`.
    pub fn verify_row(&self, row: &Row, password: &str) -> Option<AuthenticatedUser> {
        // NOTE: hash and tag are salted with the *stored* username.
        let stored_name = row.text("username")?;
        let expected = row.text("password_hash")?;
        let tag = self.verified.tag(stored_name, expected, password);
        if !self.verified.contains(&tag) {
            let got = hash_password(stored_name, password, self.config.hash_iterations);
            if !ct_eq(expected.as_bytes(), got.as_bytes()) {
                return None;
            }
            self.verified.insert(tag);
        }
        Some(AuthenticatedUser {
            username: stored_name.to_string(),
            privileges: wire_to_privileges(row.text("privileges").unwrap_or("")),
            is_admin: row.bool("is_admin").unwrap_or(false),
        })
    }

    /// Warm verifications: the credential's tag was cached.
    pub(crate) fn cache_hits(&self) -> &Counter {
        &self.verified.hits
    }

    /// Cold verifications: the full KDF ran (first presentation of a
    /// credential, a wrong password, or a tag evicted from a full set).
    pub(crate) fn cache_misses(&self) -> &Counter {
        &self.verified.misses
    }
}

/// Sets in the verified-credential table (a power of two).
const CACHE_SETS: usize = 1024;
/// Tags per set: 1,024 × 4 = 4,096 slots × 32 bytes = 128 KB.
const CACHE_WAYS: usize = 4;

type Tag = [u8; DIGEST_LEN];

/// Four-way set-associative table of tags of credentials that passed the
/// full KDF.
///
/// Four ways rather than one slot per tag: the set a tag lands in follows
/// from the per-process key, so with one slot per set two live credentials
/// would share a slot in some processes and not in others (24 users in
/// 4,096 direct-mapped slots: ~6.5 % of processes), and there evict each
/// other on every request, paying the KDF each time. A set only overflows
/// when five live credentials meet in it.
///
/// An empty slot holds zeros, which no tag equals except with
/// probability 2⁻²⁵⁶. An insert into a full set evicts one older tag,
/// whose next presentation is simply cold again.
struct VerifiedCache {
    /// HMAC-SHA-256 keyed with 32 bytes from `/dev/urandom`; cloned per
    /// tag so the key pads are absorbed once.
    mac: HmacSha256,
    sets: RwLock<Box<[[Tag; CACHE_WAYS]]>>,
    hits: Counter,
    misses: Counter,
}

impl VerifiedCache {
    fn new() -> VerifiedCache {
        let mut key = [0u8; 32];
        File::open("/dev/urandom")
            .and_then(|mut f| f.read_exact(&mut key))
            .expect("reading the credential-cache key from /dev/urandom");
        VerifiedCache {
            mac: HmacSha256::new(&key),
            sets: RwLock::new(vec![[[0; DIGEST_LEN]; CACHE_WAYS]; CACHE_SETS].into_boxed_slice()),
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    /// HMAC(username ‖ 0 ‖ stored hash ‖ 0 ‖ presented password).
    fn tag(&self, username: &str, stored_hash: &str, password: &str) -> Tag {
        let mut mac = self.mac.clone();
        mac.update(username.as_bytes());
        mac.update(&[0]);
        mac.update(stored_hash.as_bytes());
        mac.update(&[0]);
        mac.update(password.as_bytes());
        mac.finalize()
    }

    fn set(tag: &Tag) -> usize {
        usize::from(u16::from_le_bytes([tag[0], tag[1]])) % CACHE_SETS
    }

    /// Whether any way of `set` holds `tag`, comparing every way in
    /// constant time.
    fn holds(set: &[Tag; CACHE_WAYS], tag: &Tag) -> bool {
        set.iter().fold(false, |found, way| found | ct_eq(way, tag))
    }

    /// Whether `tag` is cached; counts the hit or miss. The sets are plain
    /// bytes and every state of them is valid, so a poisoned lock is used
    /// as is.
    fn contains(&self, tag: &Tag) -> bool {
        let sets = self.sets.read().unwrap_or_else(PoisonError::into_inner);
        let hit = Self::holds(&sets[Self::set(tag)], tag);
        drop(sets);
        if hit {
            self.hits.inc();
        } else {
            self.misses.inc();
        }
        hit
    }

    /// Caches `tag` in an empty way of its set, or, when the set is full,
    /// in the way its third byte picks. A tag already present (two workers
    /// verified the same credential at once) is not stored twice.
    fn insert(&self, tag: Tag) {
        let mut sets = self.sets.write().unwrap_or_else(PoisonError::into_inner);
        let set = &mut sets[Self::set(&tag)];
        if Self::holds(set, &tag) {
            return;
        }
        let way = set
            .iter()
            .position(|way| *way == [0; DIGEST_LEN])
            .unwrap_or(usize::from(tag[2]) % CACHE_WAYS);
        set[way] = tag;
    }
}

/// Counts only: neither the key nor any tag is printed.
impl fmt::Debug for VerifiedCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VerifiedCache")
            .field("slots", &(CACHE_SETS * CACHE_WAYS))
            .field("hits", &self.hits.get())
            .field("misses", &self.misses.get())
            .finish_non_exhaustive()
    }
}

/// Serialises privileges for storage (`kind pattern` per line).
pub fn privileges_to_wire(privileges: &PrivilegeSet) -> String {
    privileges
        .iter()
        .map(|p| format!("{} {}", p.kind().keyword(), p.pattern()))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Parses stored privileges; malformed lines are dropped (fail-closed:
/// damage to the privileges column can only *reduce* access).
pub fn wire_to_privileges(wire: &str) -> PrivilegeSet {
    let mut set = PrivilegeSet::new();
    for line in wire.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Some((kind, pattern)) = line.split_once(' ') else {
            continue;
        };
        let (Ok(kind), Ok(pattern)) = (kind.parse(), pattern.trim().parse()) else {
            continue;
        };
        set.grant(Privilege::new(kind, pattern));
    }
    set
}

/// Iterated salted hash. Deliberately sequential (each round feeds the
/// next) so it cannot be vectorised away; FNV-based, predating the in-repo
/// SHA-256 (`safeweb-digest`) that a PBKDF2 replacement would build on.
/// The *shape* (slow KDF-style
/// verification dominating request latency) is what the evaluation needs —
/// a production deployment would swap in bcrypt/argon2.
pub fn hash_password(username: &str, password: &str, iterations: u32) -> String {
    let mut state: u64 = 0xcbf29ce484222325;
    let salt = format!("safeweb${username}$");
    for b in salt.bytes().chain(password.bytes()) {
        state ^= b as u64;
        state = state.wrapping_mul(0x100000001b3);
    }
    for i in 0..iterations {
        state ^= i as u64;
        state = state.wrapping_mul(0x100000001b3);
        state = state.rotate_left(17);
    }
    format!("{state:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use safeweb_labels::Label;

    fn store() -> UserStore {
        UserStore::new(
            Database::new("web"),
            AuthConfig {
                hash_iterations: 1000, // fast for tests
            },
        )
    }

    fn mdt_privs(name: &str) -> PrivilegeSet {
        let mut p = PrivilegeSet::new();
        p.grant(Privilege::clearance(Label::conf(
            "ecric.org.uk",
            &format!("mdt/{name}"),
        )));
        p
    }

    #[test]
    fn create_and_authenticate() {
        let store = store();
        store
            .create_user("mdt1", "secret", &mdt_privs("one"), false)
            .unwrap();
        let user = store.authenticate("mdt1", "secret").unwrap();
        assert_eq!(user.username, "mdt1");
        assert!(user
            .privileges
            .has_clearance(&Label::conf("ecric.org.uk", "mdt/one")));
        assert!(!user.is_admin);

        assert!(store.authenticate("mdt1", "wrong").is_none());
        assert!(store.authenticate("nobody", "secret").is_none());
    }

    #[test]
    fn duplicate_user_rejected() {
        let store = store();
        store
            .create_user("u", "p", &PrivilegeSet::new(), false)
            .unwrap();
        assert!(store
            .create_user("u", "p", &PrivilegeSet::new(), false)
            .is_err());
    }

    #[test]
    fn usernames_are_case_sensitive() {
        // The §5.2 "errors in access checks" study hinges on mdt1 vs MDT1
        // being distinct principals.
        let store = store();
        store
            .create_user("mdt1", "a", &mdt_privs("one"), false)
            .unwrap();
        store
            .create_user("MDT1", "b", &mdt_privs("two"), false)
            .unwrap();
        let lower = store.authenticate("mdt1", "a").unwrap();
        let upper = store.authenticate("MDT1", "b").unwrap();
        assert_ne!(lower.privileges, upper.privileges);
        assert!(store.authenticate("MDT1", "a").is_none());
    }

    #[test]
    fn grant_privilege_extends_user() {
        let store = store();
        store
            .create_user("u", "p", &PrivilegeSet::new(), false)
            .unwrap();
        store
            .grant_privilege("u", Privilege::clearance(Label::conf("e", "x")))
            .unwrap();
        let user = store.authenticate("u", "p").unwrap();
        assert!(user.privileges.has_clearance(&Label::conf("e", "x")));
        assert!(store
            .grant_privilege("ghost", Privilege::clearance(Label::conf("e", "x")))
            .is_err());
    }

    #[test]
    fn privilege_wire_roundtrip() {
        let privs = mdt_privs("one");
        let wire = privileges_to_wire(&privs);
        assert_eq!(wire_to_privileges(&wire), privs);
        // Garbage lines are dropped, not granted.
        assert!(wire_to_privileges("nonsense\nclearance not-a-label").is_empty());
    }

    #[test]
    fn hash_depends_on_all_inputs() {
        let a = hash_password("u", "p", 1000);
        assert_ne!(a, hash_password("u", "q", 1000));
        assert_ne!(a, hash_password("v", "p", 1000));
        assert_ne!(a, hash_password("u", "p", 1001));
        assert_eq!(a, hash_password("u", "p", 1000));
    }

    fn hits_misses(store: &UserStore) -> (u64, u64) {
        (store.cache_hits().get(), store.cache_misses().get())
    }

    #[test]
    fn second_presentation_is_warm_and_equal() {
        let store = store();
        store
            .create_user("mdt1", "secret", &mdt_privs("one"), false)
            .unwrap();
        let cold = store.authenticate("mdt1", "secret").unwrap();
        assert_eq!(hits_misses(&store), (0, 1));
        let warm = store.authenticate("mdt1", "secret").unwrap();
        assert_eq!(hits_misses(&store), (1, 1));
        assert_eq!(cold, warm);
        // A clone shares the cache (frontend shards, the ops gate).
        assert!(store.clone().authenticate("mdt1", "secret").is_some());
        assert_eq!(hits_misses(&store), (2, 1));
    }

    #[test]
    fn wrong_passwords_are_cold_every_time() {
        let store = store();
        store
            .create_user("u", "right", &PrivilegeSet::new(), false)
            .unwrap();
        store.authenticate("u", "right").unwrap();
        for _ in 0..3 {
            assert!(store.authenticate("u", "wrong").is_none());
            assert!(store.authenticate("u", "right\0").is_none());
        }
        assert_eq!(hits_misses(&store), (0, 7));
    }

    #[test]
    fn case_insensitive_lookup_hook_is_the_same_warm_as_cold() {
        // The §5.2 injected bug: `MDT1` resolves to `mdt1`'s row. Tags bind
        // the *stored* name, so the cache neither hides nor adds to it.
        let store = store();
        store
            .create_user("mdt1", "a", &mdt_privs("one"), false)
            .unwrap();
        let lookup = |db: &Database, name: &str| {
            db.get("users", &CellValue::from(name.to_lowercase().as_str()))
                .ok()
                .flatten()
        };
        for (name, password) in [("MDT1", "a"), ("Mdt1", "a"), ("MDT1", "b"), ("mdt2", "a")] {
            let cold = store.authenticate_with_lookup(name, password, lookup);
            let warm = store.authenticate_with_lookup(name, password, lookup);
            assert_eq!(cold, warm, "{name}/{password}");
            assert_eq!(cold.is_some(), password == "a" && name != "mdt2");
            if let Some(user) = cold {
                assert_eq!(user.username, "mdt1");
            }
        }
    }

    #[test]
    fn tags_sharing_a_set_do_not_evict_each_other() {
        let cache = VerifiedCache::new();
        // Same first two bytes, so the same set; distinct third bytes.
        let tag = |n: u8| {
            let mut t = [n; DIGEST_LEN];
            t[..2].copy_from_slice(&[7, 1]);
            t
        };
        for n in 1..=CACHE_WAYS as u8 {
            cache.insert(tag(n));
            cache.insert(tag(n));
        }
        assert!((1..=CACHE_WAYS as u8).all(|n| cache.contains(&tag(n))));
        // A fifth tag evicts exactly one of the four.
        cache.insert(tag(9));
        let kept = (1..=CACHE_WAYS as u8)
            .filter(|&n| cache.contains(&tag(n)))
            .count();
        assert!(cache.contains(&tag(9)));
        assert_eq!(kept, CACHE_WAYS - 1);
    }

    #[test]
    fn nul_in_username_is_rejected() {
        let store = store();
        assert!(store
            .create_user("a\0b", "p", &PrivilegeSet::new(), false)
            .is_err());
    }

    #[test]
    fn debug_shows_no_key_or_tag_bytes() {
        let store = store();
        store
            .create_user("u", "p", &PrivilegeSet::new(), false)
            .unwrap();
        store.authenticate("u", "p").unwrap();
        let row = store.database().get("users", &"u".into()).unwrap().unwrap();
        let tag = store
            .verified
            .tag("u", row.text("password_hash").unwrap(), "p");
        let shown = format!("{store:?}");
        let hex: String = tag.iter().map(|b| format!("{b:02x}")).collect();
        let bytes = format!("{tag:?}");
        let head = &bytes[..bytes.len() / 4];
        for needle in [hex.as_str(), &hex[..8], bytes.as_str(), head] {
            assert!(!shown.contains(needle), "{needle} in {shown}");
        }
        assert!(shown.contains("VerifiedCache { slots: 4096, hits: 0, misses: 1, .. }"));
    }

    /// One step of the differential test, over three users.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Right(usize),
        Wrong(usize),
        /// The password the user had before its last change.
        Old(usize),
        Change(usize),
        Grant(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..5, 0usize..3).prop_map(|(kind, user)| match kind {
            0 => Op::Right(user),
            1 => Op::Wrong(user),
            2 => Op::Old(user),
            3 => Op::Change(user),
            _ => Op::Grant(user),
        })
    }

    /// The uncached oracle: a direct `hash_password` compare against the
    /// current row.
    fn oracle(store: &UserStore, name: &str, password: &str) -> Option<AuthenticatedUser> {
        let row = store.database().get("users", &name.into()).ok()??;
        let expected = hash_password(name, password, store.config.hash_iterations);
        (row.text("password_hash")? == expected).then(|| AuthenticatedUser {
            username: name.to_string(),
            privileges: wire_to_privileges(row.text("privileges").unwrap_or("")),
            is_admin: row.bool("is_admin").unwrap_or(false),
        })
    }

    proptest! {
        /// A cached store agrees with the uncached oracle over any sequence
        /// of right, wrong and stale passwords, password changes and
        /// grants; rejected credentials never hit, and a grant shows on the
        /// very next authenticate.
        #[test]
        fn cached_store_agrees_with_uncached_oracle(ops in proptest::collection::vec(op(), 1..40)) {
            let store = UserStore::new(Database::new("web"), AuthConfig { hash_iterations: 50 });
            let names = ["mdt1", "mdt2", "MDT1"];
            let mut current = ["pw-0".to_string(), "pw-0".to_string(), "pw-0".to_string()];
            let mut old = current.clone();
            let mut changes = 0u32;
            let mut granted: Vec<Option<Label>> = vec![None; 3];
            for name in names {
                store.create_user(name, "pw-0", &PrivilegeSet::new(), false).unwrap();
            }
            for op in ops {
                let (user, password) = match op {
                    Op::Right(u) => (u, current[u].clone()),
                    Op::Wrong(u) => (u, format!("{}x", current[u])),
                    Op::Old(u) => (u, old[u].clone()),
                    Op::Change(u) => {
                        // A direct `users` row update, as an admin tool would.
                        changes += 1;
                        old[u] = std::mem::replace(&mut current[u], format!("pw-{changes}"));
                        let row = store.database().get("users", &names[u].into()).unwrap().unwrap();
                        store.database().update("users", vec![
                            names[u].into(),
                            hash_password(names[u], &current[u], 50).into(),
                            row.text("privileges").unwrap_or("").into(),
                            row.bool("is_admin").unwrap_or(false).into(),
                        ]).unwrap();
                        continue;
                    }
                    Op::Grant(u) => {
                        let label = Label::conf("e", &format!("grant/{changes}/{u}"));
                        store.grant_privilege(names[u], Privilege::clearance(label.clone())).unwrap();
                        granted[u] = Some(label);
                        (u, current[u].clone())
                    }
                };
                let (hits_before, _) = hits_misses(&store);
                let got = store.authenticate(names[user], &password);
                let (hits_after, _) = hits_misses(&store);
                prop_assert_eq!(&got, &oracle(&store, names[user], &password));
                if got.is_none() {
                    prop_assert_eq!(hits_after, hits_before, "a rejected credential hit");
                } else {
                    if let Some(label) = &granted[user] {
                        prop_assert!(got.as_ref().unwrap().privileges.has_clearance(label));
                    }
                    // Just inserted or just hit: the repeat is warm.
                    prop_assert_eq!(store.authenticate(names[user], &password), got);
                    prop_assert_eq!(hits_misses(&store).0, hits_after + 1);
                }
            }
        }
    }
}
