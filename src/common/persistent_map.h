// PersistentMap: a copy-on-write ordered map with O(1) snapshots.
//
// This is the structure behind the engine's O(1) ledger snapshots: the
// chain keeps the full state of every fork tip and of every 32nd block
// (Blockchain::StateAt), and callers take copies of the head's. With
// std::map each of them would cost O(state size). Here a copy is a shared
// root pointer, and divergent snapshots (sibling forks, a checkpoint and
// the block built on it, a caller's copy and the head it came from) share
// all unmodified nodes of a B+-tree. A block that extends a tip takes over
// the tip's handle, so its commit rewrites the nodes that handle owns
// alone in place.
//
// Shape: leaves hold up to 8 entries, keys and values in separate arrays
// (a search reads only keys); inner nodes hold up to 16 children and the
// 15 separators between them. A search scans a node's keys in order,
// which at these widths found keys in about 40% less time than a binary
// search (one mispredicted exit instead of a mispredicted halving per
// level). A full node splits at its midpoint, a node
// below half full borrows an entry from a sibling that can spare one or
// else merges with it, and a root left with one child gives way to it.
// From 25k to 140k random keys (open-world UTXO sets) leaves are 70% full
// and a write walks 5 levels, where the binary tree this replaced walked
// about 15. The widths are constants, not options (docs/benchmarks.md,
// "Ledger maps as B+-trees", has the widths measured).
//
// Mutation walks from the root to the key's leaf once, without writing.
// If it then writes, it takes each node on that path in place when this
// handle owns it alone: its count is 1, and every node above it on the
// path is owned alone too (a node reached through a shared parent is
// reachable from other snapshots, whatever its own count). The first
// shared node and every node below it on the path are copied, so a
// snapshot never sees a later change; a sibling that a split, borrow or
// merge writes is taken the same way. Both paths make the same
// decisions: tree shape and key order do not depend on which nodes were
// shared.
//
// Determinism: iteration is strictly in key order (same order as std::map
// with std::less), independent of insertion history, so every fold over a
// ledger state is reproducible bit-for-bit. No tree shape is ever hashed
// or observed.
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
// blocks, so a copied node costs a free-list pop rather than a malloc of
// node + control block, and a release never touches a separate
// control-block cache line. The count is atomic so that a snapshot, like
// any value, may cross threads: copies of one map may be taken, mutated
// and released on several threads at once, and every copied node
// re-references the untouched children of the shared original. The
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

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "src/common/arena.h"

/// Core utilities shared by every module (the dependency root).
namespace ac3 {

/// Copy-on-write ordered map (a B+-tree): O(1) snapshot copies, O(log n)
/// mutation — in place on nodes this handle owns alone, by copying the
/// shared ones on the written path — and std::map-identical key-order
/// iteration. Nodes are pool-allocated with intrusive atomic refcounts, so
/// snapshots may be copied, mutated, and released concurrently on
/// different threads as long as each *handle* is used by one thread at a
/// time. K and V must be default-constructible and copyable.
template <typename K, typename V>
class PersistentMap {
 private:
  /// Entries per leaf and children per inner node, at most. Every node
  /// but the root holds at least half as many.
  static constexpr unsigned kLeafSlots = 8;
  static constexpr unsigned kInnerSlots = 16;
  static constexpr unsigned kLeafMin = kLeafSlots / 2;
  static constexpr unsigned kInnerMin = kInnerSlots / 2;
  /// Levels of the tallest tree: a tree of height h holds at least
  /// 2 * kInnerMin^(h-2) leaves of kLeafMin keys, 8^(h-1) keys, so 22
  /// levels cover every size_t count.
  static constexpr size_t kMaxHeight = 22;

  struct Node;  // Defined below; declared early for the iterator.
  struct Leaf;
  struct Inner;

 public:
  /// An empty map (no allocation until the first Put).
  PersistentMap() = default;
  /// An O(1) snapshot sharing every node with `other`.
  PersistentMap(const PersistentMap& other) = default;
  /// Replaces this map's contents with an O(1) snapshot of `other`'s.
  PersistentMap& operator=(const PersistentMap& other) = default;
  /// Takes `other`'s nodes; `other` is left empty.
  PersistentMap(PersistentMap&& other) noexcept
      : root_(std::move(other.root_)), size_(std::exchange(other.size_, 0)) {}
  /// Takes `other`'s nodes; `other` is left empty.
  PersistentMap& operator=(PersistentMap&& other) noexcept {
    root_ = std::move(other.root_);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  /// Number of keys, kept by the handle (O(1)).
  size_t size() const { return size_; }
  /// True when no keys are present.
  bool empty() const { return size_ == 0; }

  /// Pointer to the value for `key`, or nullptr when absent. Valid until
  /// the next mutation of this handle (see the file comment).
  const V* Find(const K& key) const {
    const Node* node = root_.get();
    if (node == nullptr) return nullptr;
    while (!node->leaf) {
      const Inner* inner = static_cast<const Inner*>(node);
      node = inner->children[inner->ChildIndex(key)].get();
    }
    const Leaf* leaf = static_cast<const Leaf*>(node);
    const unsigned at = leaf->LowerBound(key);
    return leaf->Holds(at, key) ? &leaf->values[at] : nullptr;
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
    if (root_.get() == nullptr) root_ = NewNode<Leaf>();
    Path path;
    Descend(key, &path);
    MakeWritable(&path);
    const size_t depth = path.leaf_depth;
    Leaf* leaf = static_cast<Leaf*>(path.nodes[depth]);
    const unsigned at = path.slots[depth];
    if (path.found) {
      leaf->values[at] = std::move(value);
      return;
    }
    ++size_;
    if (leaf->count < kLeafSlots) {
      InsertEntry(leaf, at, key, std::move(value));
      return;
    }
    // The leaf splits at its midpoint, and each full node above it in turn
    // takes its new right sibling by splitting too.
    NodeRef right = NewNode<Leaf>();
    Leaf* right_leaf = static_cast<Leaf*>(right.Exclusive());
    MoveEntries(leaf, kLeafMin, right_leaf);
    if (at <= kLeafMin) {
      InsertEntry(leaf, at, key, std::move(value));
    } else {
      InsertEntry(right_leaf, at - kLeafMin, key, std::move(value));
    }
    K separator = right_leaf->keys[0];
    for (size_t d = depth; d-- > 0;) {
      Inner* parent = static_cast<Inner*>(path.nodes[d]);
      const unsigned child = path.slots[d];
      if (parent->count < kInnerSlots) {
        InsertChild(parent, child, std::move(separator), std::move(right));
        return;
      }
      NodeRef sibling = NewNode<Inner>();
      Inner* sibling_inner = static_cast<Inner*>(sibling.Exclusive());
      K up = std::move(parent->keys[kInnerMin - 1]);
      MoveChildren(parent, kInnerMin, sibling_inner);
      if (child < kInnerMin) {
        InsertChild(parent, child, std::move(separator), std::move(right));
      } else {
        InsertChild(sibling_inner, child - kInnerMin, std::move(separator),
                    std::move(right));
      }
      separator = std::move(up);
      right = std::move(sibling);
    }
    NodeRef root = NewNode<Inner>();
    Inner* root_inner = static_cast<Inner*>(root.Exclusive());
    root_inner->children[0] = std::move(root_);
    root_inner->children[1] = std::move(right);
    root_inner->keys[0] = std::move(separator);
    root_inner->count = 2;
    root_ = std::move(root);
  }

  /// Removes `key`; returns whether it was present. An absent key writes
  /// and copies nothing.
  bool Erase(const K& key) {
    if (root_.get() == nullptr) return false;
    Path path;
    Descend(key, &path);
    if (!path.found) return false;
    MakeWritable(&path);
    --size_;
    const size_t depth = path.leaf_depth;
    RemoveEntry(static_cast<Leaf*>(path.nodes[depth]), path.slots[depth]);
    for (size_t d = depth; d > 0; --d) {
      const Node* node = path.nodes[d];
      if (node->count >= (node->leaf ? kLeafMin : kInnerMin)) break;
      Refill(static_cast<Inner*>(path.nodes[d - 1]), path.slots[d - 1],
             path.nodes[d]);
    }
    Node* root = path.nodes[0];
    if (root->leaf && root->count == 0) {
      root_ = NodeRef();
    } else if (!root->leaf && root->count == 1) {
      root_ = std::move(static_cast<Inner*>(root)->children[0]);
    }
    return true;
  }

  /// Structural equality: same keys mapping to equal values (element-wise,
  /// in key order).
  bool operator==(const PersistentMap& other) const {
    if (size() != other.size()) return false;
    if (root_.get() == other.root_.get()) return true;
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
      return {leaf_->keys[slot_], leaf_->values[slot_]};
    }

    /// Advances to the next key in order.
    const_iterator& operator++() {
      if (++slot_ < leaf_->count) return *this;
      // Climb to the nearest inner node with a child further right, then
      // down that child's leftmost path.
      for (; depth_ > 0; --depth_) {
        Frame& frame = frames_[depth_ - 1];
        if (++frame.child < frame.node->count) {
          DescendLeftmost(frame.node->children[frame.child].get());
          return *this;
        }
      }
      leaf_ = nullptr;
      slot_ = 0;
      return *this;
    }

    /// Iterators are equal when positioned on the same entry (or both at
    /// the end).
    bool operator==(const const_iterator& other) const {
      return leaf_ == other.leaf_ && slot_ == other.slot_;
    }
    /// Negation of operator==.
    bool operator!=(const const_iterator& other) const {
      return !(*this == other);
    }

   private:
    friend class PersistentMap;

    /// An inner node on the current path and the child taken in it.
    struct Frame {
      const Inner* node = nullptr;
      unsigned child = 0;
    };

    void DescendLeftmost(const Node* node) {
      while (!node->leaf) {
        const Inner* inner = static_cast<const Inner*>(node);
        frames_[depth_++] = Frame{inner, 0};
        node = inner->children[0].get();
      }
      leaf_ = static_cast<const Leaf*>(node);
      slot_ = 0;
    }

    std::array<Frame, kMaxHeight> frames_{};
    size_t depth_ = 0;
    const Leaf* leaf_ = nullptr;
    unsigned slot_ = 0;
  };

  /// Iterator on the smallest key (== end() when empty).
  const_iterator begin() const {
    const_iterator it;
    if (root_.get() != nullptr) it.DescendLeftmost(root_.get());
    return it;
  }
  /// The past-the-end iterator.
  const_iterator end() const { return const_iterator(); }

 private:
  /// Intrusive shared reference to a pool-resident node — the
  /// shared_ptr<Node> subset the tree needs, minus the control block, weak
  /// count, and per-node malloc.
  class NodeRef {
   public:
    NodeRef() = default;

    NodeRef(const NodeRef& other) : node_(other.node_) {
      if (node_ != nullptr) {
        node_->refs.fetch_add(1, std::memory_order_relaxed);
      }
    }
    NodeRef(NodeRef&& other) noexcept
        : node_(std::exchange(other.node_, nullptr)) {}
    NodeRef& operator=(const NodeRef& other) {
      NodeRef copy(other);
      std::swap(node_, copy.node_);
      return *this;
    }
    /// Leaves `other` null, and releases what this held.
    NodeRef& operator=(NodeRef&& other) noexcept {
      NodeRef taken(std::move(other));
      std::swap(node_, taken.node_);
      return *this;
    }
    ~NodeRef() { Release(); }

    const Node* get() const { return node_; }
    /// The node, writable, when this is its only reference; else nullptr.
    /// The caller must have reached this reference through nodes it owns
    /// alone (or the handle's root).
    Node* Exclusive() const {
      if (node_ == nullptr) return nullptr;
      return node_->refs.load(std::memory_order_acquire) == 1 ? node_
                                                              : nullptr;
    }

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
        // Destroying an inner node releases its children in turn; the
        // recursion is as deep as the tree.
        if (node_->leaf) {
          Leaf* leaf = static_cast<Leaf*>(node_);
          leaf->~Leaf();
          NodePool<Leaf>::Deallocate(leaf);
        } else {
          Inner* inner = static_cast<Inner*>(node_);
          inner->~Inner();
          NodePool<Inner>::Deallocate(inner);
        }
      }
      node_ = nullptr;
    }

    Node* node_ = nullptr;
  };

  /// What every node starts with: the reference count, the number of
  /// entries (leaf) or children (inner), and which of the two it is.
  /// Pointer-aligned, as NodePool threads its free list through freed
  /// nodes.
  struct alignas(void*) Node {
    Node(bool is_leaf, uint8_t entries) : count(entries), leaf(is_leaf) {}

    /// Intrusive count; starts at 1 for the reference NewNode() returns.
    std::atomic<uint32_t> refs{1};
    uint8_t count = 0;
    const bool leaf;
  };

  /// Entries in key order in keys/values[0, count). Slots past `count`
  /// hold default or moved-from values.
  struct Leaf : Node {
    Leaf() : Node(true, 0) {}
    /// A copy of `other`'s entries, referenced once.
    Leaf(const Leaf& other)
        : Node(true, other.count), keys(other.keys), values(other.values) {}

    /// The first slot whose key is not below `key` (count when none).
    unsigned LowerBound(const K& key) const {
      unsigned at = 0;
      while (at < this->count && keys[at] < key) ++at;
      return at;
    }
    /// True when slot `at` (a LowerBound result) holds `key`.
    bool Holds(unsigned at, const K& key) const {
      return at < this->count && !(key < keys[at]);
    }

    std::array<K, kLeafSlots> keys{};
    std::array<V, kLeafSlots> values{};
  };

  /// children[0, count) in key order; keys[i] separates children[i]
  /// (every key below it) from children[i + 1] (every key at or above).
  struct Inner : Node {
    Inner() : Node(false, 0) {}
    /// A copy of `other`, referenced once; every child gains a reference.
    Inner(const Inner& other)
        : Node(false, other.count),
          keys(other.keys),
          children(other.children) {}

    /// The child whose range holds `key`: past every separator not above
    /// it.
    unsigned ChildIndex(const K& key) const {
      unsigned at = 0;
      while (at + 1 < this->count && !(key < keys[at])) ++at;
      return at;
    }

    std::array<K, kInnerSlots - 1> keys{};
    std::array<NodeRef, kInnerSlots> children;
  };

  /// A root-to-leaf walk toward one key: the slot taken at each level (the
  /// child index in an inner node, the key's LowerBound in the leaf), and
  /// the writable node at each level above `shared_from`, the depth of the
  /// first node this handle shares (leaf_depth + 1 when it shares none);
  /// MakeWritable fills in the rest.
  struct Path {
    std::array<unsigned, kMaxHeight> slots;
    std::array<Node*, kMaxHeight> nodes;
    size_t leaf_depth = 0;
    size_t shared_from = 0;
    bool found = false;
  };

  /// A node of type N (Leaf or Inner) built from `args`, owned by the
  /// result.
  template <typename N, typename... Args>
  static NodeRef NewNode(const Args&... args) {
    return NodeRef::Adopt(new (NodePool<N>::Allocate()) N(args...));
  }

  /// A copy of `node` owned by the result.
  static NodeRef Clone(const Node* node) {
    if (node->leaf) return NewNode<Leaf>(*static_cast<const Leaf*>(node));
    return NewNode<Inner>(*static_cast<const Inner*>(node));
  }

  /// The node at `*slot`, writable: the node itself when this handle owns
  /// it alone, else a copy that takes its place there. `slot` is the root
  /// or a child slot of a node this handle owns alone.
  static Node* Writable(NodeRef* slot) {
    if (Node* node = slot->Exclusive()) return node;
    NodeRef copy = Clone(slot->get());
    Node* node = copy.Exclusive();
    *slot = std::move(copy);
    return node;
  }

  /// The one walk from the root to `key`'s leaf: fills `path`, writing no
  /// node. The root must not be null.
  void Descend(const K& key, Path* path) {
    const NodeRef* slot = &root_;
    size_t depth = 0;
    bool owned = true;
    for (;; ++depth) {
      if (owned) {
        // Only a path of nodes owned alone leads to one owned alone.
        path->nodes[depth] = slot->Exclusive();
        owned = path->nodes[depth] != nullptr;
        if (!owned) path->shared_from = depth;
      }
      const Node* node = slot->get();
      if (node->leaf) break;
      const Inner* inner = static_cast<const Inner*>(node);
      const unsigned child = inner->ChildIndex(key);
      path->slots[depth] = child;
      slot = &inner->children[child];
    }
    const Leaf* leaf = static_cast<const Leaf*>(slot->get());
    const unsigned at = leaf->LowerBound(key);
    path->slots[depth] = at;
    path->leaf_depth = depth;
    if (owned) path->shared_from = depth + 1;
    path->found = leaf->Holds(at, key);
  }

  /// Copies the shared nodes on `path`, from its first shared one down,
  /// each into its parent's slot, and records the copies: a copy shares
  /// every child of its original, so each node below is copied too.
  void MakeWritable(Path* path) {
    for (size_t d = path->shared_from; d <= path->leaf_depth; ++d) {
      NodeRef* slot =
          d == 0 ? &root_
                 : &static_cast<Inner*>(path->nodes[d - 1])
                        ->children[path->slots[d - 1]];
      path->nodes[d] = Writable(slot);
    }
  }

  static void InsertEntry(Leaf* leaf, unsigned at, const K& key, V value) {
    std::move_backward(leaf->keys.begin() + at,
                       leaf->keys.begin() + leaf->count,
                       leaf->keys.begin() + leaf->count + 1);
    std::move_backward(leaf->values.begin() + at,
                       leaf->values.begin() + leaf->count,
                       leaf->values.begin() + leaf->count + 1);
    leaf->keys[at] = key;
    leaf->values[at] = std::move(value);
    ++leaf->count;
  }

  static void RemoveEntry(Leaf* leaf, unsigned at) {
    std::move(leaf->keys.begin() + at + 1, leaf->keys.begin() + leaf->count,
              leaf->keys.begin() + at);
    std::move(leaf->values.begin() + at + 1,
              leaf->values.begin() + leaf->count, leaf->values.begin() + at);
    --leaf->count;
  }

  /// Moves `from`'s entries [first, count) to the empty leaf `to`.
  static void MoveEntries(Leaf* from, unsigned first, Leaf* to) {
    std::move(from->keys.begin() + first, from->keys.begin() + from->count,
              to->keys.begin());
    std::move(from->values.begin() + first,
              from->values.begin() + from->count, to->values.begin());
    to->count = static_cast<uint8_t>(from->count - first);
    from->count = static_cast<uint8_t>(first);
  }

  /// Inserts `child` right of children[at], with `separator` between them.
  static void InsertChild(Inner* inner, unsigned at, K separator,
                          NodeRef child) {
    std::move_backward(inner->keys.begin() + at,
                       inner->keys.begin() + inner->count - 1,
                       inner->keys.begin() + inner->count);
    std::move_backward(inner->children.begin() + at + 1,
                       inner->children.begin() + inner->count,
                       inner->children.begin() + inner->count + 1);
    inner->keys[at] = std::move(separator);
    inner->children[at + 1] = std::move(child);
    ++inner->count;
  }

  /// Removes children[at + 1] and the separator keys[at] before it.
  static void RemoveChild(Inner* inner, unsigned at) {
    std::move(inner->keys.begin() + at + 1,
              inner->keys.begin() + inner->count - 1,
              inner->keys.begin() + at);
    std::move(inner->children.begin() + at + 2,
              inner->children.begin() + inner->count,
              inner->children.begin() + at + 1);
    inner->children[inner->count - 1] = NodeRef();
    --inner->count;
  }

  /// Moves `from`'s children [first, count) to the empty inner node `to`,
  /// with the separators between them; the separator left of
  /// children[first] stays behind, for the caller to move up.
  static void MoveChildren(Inner* from, unsigned first, Inner* to) {
    std::move(from->keys.begin() + first, from->keys.begin() + from->count - 1,
              to->keys.begin());
    std::move(from->children.begin() + first,
              from->children.begin() + from->count, to->children.begin());
    to->count = static_cast<uint8_t>(from->count - first);
    from->count = static_cast<uint8_t>(first);
  }

  /// Brings `child`, children[at] of `parent` (both writable) and one
  /// below half full, back to half: it borrows one entry through the
  /// parent from a sibling that can spare one, the left first, and else
  /// merges with a sibling.
  static void Refill(Inner* parent, unsigned at, Node* child) {
    const unsigned min = child->leaf ? kLeafMin : kInnerMin;
    if (at > 0 && parent->children[at - 1].get()->count > min) {
      Node* left = Writable(&parent->children[at - 1]);
      if (child->leaf) {
        Leaf* from = static_cast<Leaf*>(left);
        Leaf* to = static_cast<Leaf*>(child);
        InsertEntry(to, 0, from->keys[from->count - 1],
                    std::move(from->values[from->count - 1]));
        --from->count;
        parent->keys[at - 1] = to->keys[0];
      } else {
        Inner* from = static_cast<Inner*>(left);
        Inner* to = static_cast<Inner*>(child);
        InsertChild(to, 0, std::move(parent->keys[at - 1]),
                    std::move(from->children[from->count - 1]));
        // InsertChild put the borrowed child right of to's first; swap
        // them so the borrowed one leads.
        std::swap(to->children[0], to->children[1]);
        parent->keys[at - 1] = std::move(from->keys[from->count - 2]);
        --from->count;
      }
      return;
    }
    if (at + 1 < parent->count &&
        parent->children[at + 1].get()->count > min) {
      Node* right = Writable(&parent->children[at + 1]);
      if (child->leaf) {
        Leaf* from = static_cast<Leaf*>(right);
        Leaf* to = static_cast<Leaf*>(child);
        InsertEntry(to, to->count, from->keys[0], std::move(from->values[0]));
        RemoveEntry(from, 0);
        parent->keys[at] = from->keys[0];
      } else {
        Inner* from = static_cast<Inner*>(right);
        Inner* to = static_cast<Inner*>(child);
        to->keys[to->count - 1] = std::move(parent->keys[at]);
        to->children[to->count] = std::move(from->children[0]);
        ++to->count;
        parent->keys[at] = std::move(from->keys[0]);
        std::move(from->keys.begin() + 1, from->keys.begin() + from->count - 1,
                  from->keys.begin());
        std::move(from->children.begin() + 1,
                  from->children.begin() + from->count,
                  from->children.begin());
        --from->count;
      }
      return;
    }
    // Neither sibling can spare an entry, so the two fit in one node.
    if (at > 0) {
      Merge(parent, at - 1, Writable(&parent->children[at - 1]), child);
    } else {
      Merge(parent, at, child, parent->children[at + 1].get());
    }
  }

  /// Appends `right`, children[at + 1] of `parent`, to `left`, writable
  /// children[at], and removes `right` from `parent`. `right` is only
  /// read: it may still be shared.
  static void Merge(Inner* parent, unsigned at, Node* left,
                    const Node* right) {
    if (left->leaf) {
      Leaf* to = static_cast<Leaf*>(left);
      const Leaf* from = static_cast<const Leaf*>(right);
      std::copy_n(from->keys.begin(), from->count,
                  to->keys.begin() + to->count);
      std::copy_n(from->values.begin(), from->count,
                  to->values.begin() + to->count);
      to->count = static_cast<uint8_t>(to->count + from->count);
    } else {
      Inner* to = static_cast<Inner*>(left);
      const Inner* from = static_cast<const Inner*>(right);
      to->keys[to->count - 1] = parent->keys[at];
      std::copy_n(from->keys.begin(), from->count - 1,
                  to->keys.begin() + to->count);
      std::copy_n(from->children.begin(), from->count,
                  to->children.begin() + to->count);
      to->count = static_cast<uint8_t>(to->count + from->count);
    }
    RemoveChild(parent, at);
  }

  NodeRef root_;
  size_t size_ = 0;
};

}  // namespace ac3

#endif  // AC3_COMMON_PERSISTENT_MAP_H_
