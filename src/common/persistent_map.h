// PersistentMap: a copy-on-write ordered map with O(1) snapshots.
//
// This is the structure behind the engine's O(1) ledger snapshots: the
// chain keeps the full state of every fork tip and of every 32nd block
// (Blockchain::StateAt), and callers take copies of the head's. With
// std::map each of them would cost O(state size). Here a copy is a shared
// root pointer, and divergent snapshots (sibling forks, a checkpoint and
// the block built on it, a caller's copy and the head it came from) share
// all unmodified structure of a weight-balanced search tree. A block that
// extends a tip takes over the tip's handle, so its commit rewrites the
// nodes that handle owns alone in place.
//
// Mutation updates a node in place when this handle owns it alone: its
// count is 1 and every node above it on the path is owned alone too (a
// node reached through a shared parent is reachable from other snapshots,
// whatever its own count). The first shared node on the path and
// everything below it are path-copied, so a snapshot never sees a later
// change. Both paths make the same balancing decisions: tree shape and
// key order do not depend on which nodes were shared.
//
// Determinism: iteration is strictly in key order (same order as std::map
// with std::less), independent of insertion history, so every fold over a
// ledger state is reproducible bit-for-bit.
//
// The API is the std::map subset the ledger needs — Find/At/Put/Erase plus
// const in-order iteration (range-for compatible). Iterators and Find
// pointers are valid only until the next mutation of the *handle* they
// came from (an in-place update may rewrite or free the node they point
// into); snapshots taken before the mutation remain valid and unchanged
// (that is the point). If an allocation throws mid-update, the handle is
// left valid but unspecified.
//
// Allocation: nodes carry an intrusive reference count and live in
// NodePool slabs (src/common/arena.h) instead of shared_ptr control
// blocks, so the path-copy hot loop costs a free-list pop per node rather
// than a malloc of node + control block, and a release never touches a
// separate control-block cache line. The count is atomic so that a
// snapshot, like any value, may cross threads: copies of one map may be
// taken, mutated and released on several threads at once, and every path
// copy re-references the untouched subtrees of the shared original. The
// library keeps each state on one thread (a sweep builds, runs and drops
// each world inside one worker task); tests share a tree across threads
// (arena_test.cc, run under ThreadSanitizer in CI), and plain counts
// measured no faster in the end-to-end benchmark. Increments are relaxed
// (publication of the nodes themselves happens-before any handoff);
// decrements are acq_rel so the destroying thread observes all writes, and
// the in-place test is an acquire load for the same reason: a count that
// has just dropped to 1 on another thread must not be written before that
// thread's last read of the node.

#ifndef AC3_COMMON_PERSISTENT_MAP_H_
#define AC3_COMMON_PERSISTENT_MAP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/common/arena.h"

/// Core utilities shared by every module (the dependency root).
namespace ac3 {

/// Copy-on-write ordered map (Adams weight-balanced tree): O(1) snapshot
/// copies, O(log n) mutation — in place on nodes this handle owns alone,
/// by path copying on shared ones — and std::map-identical key-order
/// iteration. Nodes are pool-allocated with intrusive atomic refcounts, so
/// snapshots may be copied, mutated, and released concurrently on
/// different threads as long as each *handle* is used by one thread at a
/// time.
template <typename K, typename V>
class PersistentMap {
 private:
  struct Node;  // Defined below; declared early for the iterator.

 public:
  /// An empty map (no allocation until the first Put).
  PersistentMap() = default;

  /// Number of keys, maintained per node (O(1)).
  size_t size() const { return Size(root_); }
  /// True when no keys are present.
  bool empty() const { return root_ == nullptr; }

  /// Pointer to the value for `key`, or nullptr when absent. Valid until
  /// the next mutation of this handle (see the file comment).
  const V* Find(const K& key) const {
    const Node* walk = root_.get();
    while (walk != nullptr) {
      if (key < walk->key) {
        walk = walk->left.get();
      } else if (walk->key < key) {
        walk = walk->right.get();
      } else {
        return &walk->value;
      }
    }
    return nullptr;
  }

  /// True when `key` is present.
  bool Contains(const K& key) const { return Find(key) != nullptr; }

  /// Accessor for keys known to exist; throws like std::map::at so a
  /// missing key stays a defined failure in release builds too.
  const V& at(const K& key) const {
    const V* value = Find(key);
    if (value == nullptr) throw std::out_of_range("PersistentMap::at");
    return *value;
  }

  /// Inserts or replaces `key`. Mutates only this handle: other copies of
  /// the map keep observing the previous version.
  void Put(const K& key, V value) {
    root_ = Insert(std::move(root_), key, std::move(value));
  }

  /// Removes `key`; returns whether it was present.
  bool Erase(const K& key) {
    if (!Contains(key)) return false;  // Remove requires a present key.
    root_ = Remove(std::move(root_), key);
    return true;
  }

  /// In-order traversal (key order), cheapest way to fold over the map.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    ForEachNode(root_.get(), fn);
  }

  /// Structural equality: same keys mapping to equal values (element-wise,
  /// in key order).
  bool operator==(const PersistentMap& other) const {
    if (size() != other.size()) return false;
    const_iterator a = begin();
    const_iterator b = other.begin();
    for (; a != end(); ++a, ++b) {
      if ((*a).first != (*b).first || !((*a).second == (*b).second)) {
        return false;
      }
    }
    return true;
  }

  // ---- in-order const iteration (range-for support) ------------------------

  /// Forward in-order iterator over (key, value) references. Valid as
  /// long as the handle it came from is neither mutated nor destroyed;
  /// snapshots taken earlier are unaffected by later mutations.
  class const_iterator {
   public:
    /// Dereference result: a pair of references into the tree.
    using value_type = std::pair<const K&, const V&>;

    /// The past-the-end iterator.
    const_iterator() = default;

    /// Current (key, value) pair.
    value_type operator*() const {
      const Node* node = stack_.back();
      return {node->key, node->value};
    }

    /// Advances to the next key in order.
    const_iterator& operator++() {
      const Node* node = stack_.back();
      stack_.pop_back();
      PushLeftSpine(node->right.get());
      return *this;
    }

    /// Iterators are equal when positioned on the same node (or both at
    /// the end).
    bool operator==(const const_iterator& other) const {
      if (stack_.empty() || other.stack_.empty()) {
        return stack_.empty() == other.stack_.empty();
      }
      return stack_.back() == other.stack_.back();
    }
    /// Negation of operator==.
    bool operator!=(const const_iterator& other) const {
      return !(*this == other);
    }

   private:
    friend class PersistentMap;
    void PushLeftSpine(const Node* node) {
      for (; node != nullptr; node = node->left.get()) {
        stack_.push_back(node);
      }
    }
    std::vector<const Node*> stack_;
  };

  /// Iterator on the smallest key (== end() when empty).
  const_iterator begin() const {
    const_iterator it;
    it.PushLeftSpine(root_.get());
    return it;
  }
  /// The past-the-end iterator.
  const_iterator end() const { return const_iterator(); }

 private:
  class NodeRef;
  using Ptr = NodeRef;

  struct Node {
    Node(const K& k, V v, NodeRef l, NodeRef r, size_t s)
        : key(k),
          value(std::move(v)),
          left(std::move(l)),
          right(std::move(r)),
          size(s) {}

    K key;
    V value;
    Ptr left;
    Ptr right;
    size_t size;
    /// Intrusive count; starts at 1 for the reference Make() returns.
    std::atomic<uint32_t> refs{1};
  };

  /// Intrusive shared reference to a pool-resident Node — the
  /// shared_ptr<Node> subset the tree needs, minus the control block, weak
  /// count, and per-node malloc.
  class NodeRef {
   public:
    NodeRef() = default;
    NodeRef(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

    NodeRef(const NodeRef& other) : node_(other.node_) {
      if (node_ != nullptr) {
        node_->refs.fetch_add(1, std::memory_order_relaxed);
      }
    }
    NodeRef(NodeRef&& other) noexcept : node_(other.node_) {
      other.node_ = nullptr;
    }
    NodeRef& operator=(const NodeRef& other) {
      NodeRef copy(other);
      std::swap(node_, copy.node_);
      return *this;
    }
    NodeRef& operator=(NodeRef&& other) noexcept {
      std::swap(node_, other.node_);
      return *this;
    }
    ~NodeRef() { Release(); }

    const Node* get() const { return node_; }
    const Node* operator->() const { return node_; }
    /// The node, writable, when this is its only reference; else nullptr.
    /// The caller must have reached this reference through nodes it owns
    /// alone (or the handle's root).
    Node* Exclusive() const {
      if (node_ == nullptr) return nullptr;
      return node_->refs.load(std::memory_order_acquire) == 1 ? node_
                                                              : nullptr;
    }
    const Node& operator*() const { return *node_; }
    bool operator==(std::nullptr_t) const { return node_ == nullptr; }
    bool operator!=(std::nullptr_t) const { return node_ != nullptr; }
    explicit operator bool() const { return node_ != nullptr; }

    /// Takes ownership of a node whose count is already 1.
    static NodeRef Adopt(Node* node) {
      NodeRef ref;
      ref.node_ = node;
      return ref;
    }

   private:
    void Release() {
      if (node_ == nullptr) return;
      if (node_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Destroying the node releases its children in turn; recursion
        // depth is bounded by the (balanced) tree height.
        node_->~Node();
        NodePool<Node>::Deallocate(node_);
      }
      node_ = nullptr;
    }

    Node* node_ = nullptr;
  };

  static size_t Size(const Ptr& node) { return node ? node->size : 0; }
  /// Weight = size + 1, the standard trick that keeps the balance
  /// inequalities valid for empty subtrees.
  static size_t Weight(const Ptr& node) { return Size(node) + 1; }

  static Ptr Make(Ptr left, const K& key, V value, Ptr right) {
    const size_t size = 1 + Size(left) + Size(right);
    return NodeRef::Adopt(new (NodePool<Node>::Allocate()) Node(
        key, std::move(value), std::move(left), std::move(right), size));
  }

  static Ptr RotateLeft(const Ptr& left, const K& key, const V& value,
                        const Ptr& right) {
    return Make(Make(left, key, value, right->left), right->key, right->value,
                right->right);
  }
  static Ptr RotateLeftDouble(const Ptr& left, const K& key, const V& value,
                              const Ptr& right) {
    const Ptr& pivot = right->left;
    return Make(Make(left, key, value, pivot->left), pivot->key, pivot->value,
                Make(pivot->right, right->key, right->value, right->right));
  }
  static Ptr RotateRight(const Ptr& left, const K& key, const V& value,
                         const Ptr& right) {
    return Make(left->left, left->key, left->value,
                Make(left->right, key, value, right));
  }
  static Ptr RotateRightDouble(const Ptr& left, const K& key, const V& value,
                               const Ptr& right) {
    const Ptr& pivot = left->right;
    return Make(Make(left->left, left->key, left->value, pivot->left),
                pivot->key, pivot->value,
                Make(pivot->right, key, value, right));
  }

  /// Rebuilds a node whose children differ by at most one insertion or
  /// removal, restoring the weight-balance invariant
  /// (Adams-style weight-balanced tree, delta = 3, gamma = 2).
  static Ptr Balance(Ptr left, const K& key, V value, Ptr right) {
    const size_t lw = Weight(left);
    const size_t rw = Weight(right);
    if (lw + rw <= 2) return Make(std::move(left), key, std::move(value),
                                  std::move(right));
    if (rw > 3 * lw) {
      return Weight(right->left) < 2 * Weight(right->right)
                 ? RotateLeft(left, key, value, right)
                 : RotateLeftDouble(left, key, value, right);
    }
    if (lw > 3 * rw) {
      return Weight(left->right) < 2 * Weight(left->left)
                 ? RotateRight(left, key, value, right)
                 : RotateRightDouble(left, key, value, right);
    }
    return Make(std::move(left), key, std::move(value), std::move(right));
  }

  /// Restores the size and balance of an exclusively owned node whose
  /// children changed by at most one insertion or removal: in place while
  /// the weights stay within bounds, else through Balance's rotations (the
  /// decisions Balance makes for a path copy, so the shape matches).
  static Ptr Rebalance(Ptr node) {
    Node* owned = node.Exclusive();
    const size_t lw = Weight(owned->left);
    const size_t rw = Weight(owned->right);
    if (rw > 3 * lw || lw > 3 * rw) {
      return Balance(std::move(owned->left), owned->key,
                     std::move(owned->value), std::move(owned->right));
    }
    owned->size = lw + rw - 1;
    return node;
  }

  /// Inserts into the subtree `node` (consumed), in place down to the first
  /// shared node, by path copy from there.
  static Ptr Insert(Ptr node, const K& key, V value) {
    Node* owned = node.Exclusive();
    if (owned == nullptr) return CopyInsert(node, key, std::move(value));
    if (key < owned->key) {
      owned->left = Insert(std::move(owned->left), key, std::move(value));
    } else if (owned->key < key) {
      owned->right = Insert(std::move(owned->right), key, std::move(value));
    } else {
      owned->value = std::move(value);  // Replace.
      return node;
    }
    return Rebalance(std::move(node));
  }

  /// Removes the minimum of `node` (non-null, consumed), storing its key
  /// and value in `*min_key` and `*min_value`.
  static Ptr PopMin(Ptr node, K* min_key, V* min_value) {
    Node* owned = node.Exclusive();
    if (owned == nullptr) {
      const K* key = nullptr;
      const V* value = nullptr;
      Ptr rest = CopyPopMin(node, &key, &value);
      *min_key = *key;  // `node` keeps the shared minimum alive.
      *min_value = *value;
      return rest;
    }
    if (owned->left == nullptr) {
      *min_key = std::move(owned->key);
      *min_value = std::move(owned->value);
      return std::move(owned->right);
    }
    owned->left = PopMin(std::move(owned->left), min_key, min_value);
    return Rebalance(std::move(node));
  }

  /// `key` is known to exist under `node` (consumed).
  static Ptr Remove(Ptr node, const K& key) {
    Node* owned = node.Exclusive();
    if (owned == nullptr) return CopyRemove(node, key);
    if (key < owned->key) {
      owned->left = Remove(std::move(owned->left), key);
    } else if (owned->key < key) {
      owned->right = Remove(std::move(owned->right), key);
    } else if (owned->left == nullptr) {
      return std::move(owned->right);
    } else if (owned->right == nullptr) {
      return std::move(owned->left);
    } else {  // The successor moves into this node.
      owned->right =
          PopMin(std::move(owned->right), &owned->key, &owned->value);
    }
    return Rebalance(std::move(node));
  }

  // Path-copying counterparts for shared subtrees: they never write a node.

  static Ptr CopyInsert(const Ptr& node, const K& key, V value) {
    if (node == nullptr) return Make(nullptr, key, std::move(value), nullptr);
    if (key < node->key) {
      return Balance(CopyInsert(node->left, key, std::move(value)), node->key,
                     node->value, node->right);
    }
    if (node->key < key) {
      return Balance(node->left, node->key, node->value,
                     CopyInsert(node->right, key, std::move(value)));
    }
    return Make(node->left, key, std::move(value), node->right);  // Replace.
  }

  /// Removes the minimum of `node` (must be non-null), exporting it.
  static Ptr CopyPopMin(const Ptr& node, const K** min_key,
                        const V** min_value) {
    if (node->left == nullptr) {
      *min_key = &node->key;
      *min_value = &node->value;
      return node->right;
    }
    return Balance(CopyPopMin(node->left, min_key, min_value), node->key,
                   node->value, node->right);
  }

  /// `key` is known to exist under `node`.
  static Ptr CopyRemove(const Ptr& node, const K& key) {
    if (key < node->key) {
      return Balance(CopyRemove(node->left, key), node->key, node->value,
                     node->right);
    }
    if (node->key < key) {
      return Balance(node->left, node->key, node->value,
                     CopyRemove(node->right, key));
    }
    if (node->left == nullptr) return node->right;
    if (node->right == nullptr) return node->left;
    const K* succ_key = nullptr;
    const V* succ_value = nullptr;
    Ptr right = CopyPopMin(node->right, &succ_key, &succ_value);
    return Balance(node->left, *succ_key, *succ_value, std::move(right));
  }

  template <typename Fn>
  static void ForEachNode(const Node* node, Fn& fn) {
    if (node == nullptr) return;
    ForEachNode(node->left.get(), fn);
    fn(node->key, node->value);
    ForEachNode(node->right.get(), fn);
  }

  Ptr root_;
};

}  // namespace ac3

#endif  // AC3_COMMON_PERSISTENT_MAP_H_
